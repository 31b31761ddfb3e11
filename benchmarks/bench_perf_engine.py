"""Engine performance — float64 baseline vs float32 optimized, same run.

Times the hot paths behind every table in the reproduction (classifier
forward, training backward, FGSM, PGD, and the full attack grid) under
the pre-optimization engine configuration (float64 compute, no conv+BN
folding) and the shipping one (float32 policy, eval-time folding),
using identical weights for both.

Writes ``BENCH_perf_engine.json`` at the repository root so the speedup
numbers are tracked alongside the table outputs.  The optimized engine
is expected to be at least 2x faster end to end.

The report also carries a ``ladder`` section timing the two-recommender
attack grid per grid engine (per-cell "off" vs batched "exact" vs
warm-started "warm"), all under the shipping float32 engine.  The
ladder claims: "exact" >= 2x and "warm" >= 4x grid cells/s over the
per-cell path.
"""

import os

import pytest

from repro.experiments import format_perf_report, run_perf_bench

pytestmark = pytest.mark.perf

OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_perf_engine.json",
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.003"))


def test_perf_engine_speedup():
    payload = run_perf_bench(
        scale=BENCH_SCALE,
        repeats=2,
        include_grid=True,
        include_ladder=True,
        out_path=OUT_PATH,
        verbose=True,
    )
    print("\n" + format_perf_report(payload))

    speedup = payload["speedup"]
    # The tentpole claim: >= 2x wall-clock on the end-to-end grid (or the
    # PGD batch, its dominant cost) from the float32 + folding engine.
    assert max(speedup["attack_grid"], speedup["pgd"]) >= 2.0
    # Sanity: every stage should at least not get slower.
    for key, value in speedup.items():
        assert value > 1.0, f"stage {key} regressed: {value:.2f}x"

    # Ladder claims: batching the ε ladder gives >= 2x grid cells/s with
    # bitwise-identical outputs; warm starts + early exits give >= 4x.
    ladder = payload["ladder"]
    assert ladder["speedup"]["exact"] >= 2.0, ladder["speedup"]
    assert ladder["speedup"]["warm"] >= 4.0, ladder["speedup"]
    for mode in ("off", "exact", "warm"):
        assert ladder["modes"][mode]["cells"] == ladder["modes"]["off"]["cells"]
