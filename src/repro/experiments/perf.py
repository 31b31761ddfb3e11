"""Performance benchmark for the attack-grid engine.

Times the hot paths of the reproduction — classifier forward, training
backward, FGSM, PGD, and the full ``run_attack_grid`` — under two
engine configurations measured in the same process:

* ``float64_baseline`` — compute dtype float64 with conv+BN folding
  and attack-time parameter freezing off: the engine as it behaved
  before the fast-attack-grid work, except that im2col workspace reuse
  has no switch and is on in both modes;
* ``float32_optimized`` — the shipping defaults (float32 policy,
  eval-time conv+BN folding, input-gradient-only attack backward).

Both modes run the *same* trained weights (cast losslessly between the
two dtypes), so the speedup numbers isolate the engine changes from any
training noise.  Results are written as JSON for regression tracking.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, Optional

import numpy as np

from ..attacks import FGSM, PGD
from ..data import amazon_men_like
from ..features import ClassifierConfig, train_catalog_classifier
from ..nn import (
    Tensor,
    compute_dtype,
    conv_bn_folding,
    cross_entropy,
    parameter_freezing,
)
from ..telemetry import active_metrics, monotonic, span
from .config import men_config
from .context import build_context, clear_context_registry
from .runner import per_cell_grid, run_attack_grid, run_attack_grids

#: Grid engines timed by the ``ladder`` bench section, in the order they
#: are reported.  ``off`` is the per-cell oracle (:func:`per_cell_grid`),
#: the baseline the ε-ladder modes' speedups are measured against.
LADDER_BENCH_MODES = ("off", "exact", "warm")

#: The two engine configurations compared by the benchmark.  The baseline
#: switches off the fast-attack-grid engine features that still have a
#: switch, not just the dtype: folding and attack-time parameter freezing
#: arrived with that work, so the seed engine ran without them.
BENCH_MODES = {
    "float64_baseline": {
        "dtype": np.float64,
        "folding": False,
        "freeze_params": False,
    },
    "float32_optimized": {
        "dtype": np.float32,
        "folding": True,
        "freeze_params": True,
    },
}


def _best_wall_time(fn: Callable[[], None], repeats: int) -> float:
    """Best-of-``repeats`` wall time in seconds (one untimed warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = monotonic()
        fn()
        best = min(best, monotonic() - start)
    return best


def _timing(wall_s: float, ops: int, unit: str) -> Dict[str, float]:
    return {
        "wall_s": wall_s,
        "ops_per_s": ops / wall_s if wall_s > 0 else float("inf"),
        "ops_unit": unit,
    }


def _ladder_bench(grid_context, log) -> Dict:
    """Time the two-recommender grid per ladder mode (shipping engine).

    Unlike the float64-vs-float32 comparison above, every mode here runs
    the same float32 optimized engine — the measurement isolates the
    grid *orchestration*: one independent per-cell grid per recommender
    ("off") vs shared ε-ladder batching ("exact") vs warm starts + early
    exits ("warm").
    """
    names = ("VBPR", "AMR")

    def ladder_grids(mode: str):
        config = dataclasses.replace(grid_context.config, ladder_mode=mode)
        return run_attack_grids(dataclasses.replace(grid_context, config=config), names)

    runs = {
        "off": lambda: [per_cell_grid(grid_context, name) for name in names],
        "exact": lambda: ladder_grids("exact"),
        "warm": lambda: ladder_grids("warm"),
    }
    modes: Dict[str, Dict] = {}
    for mode in LADDER_BENCH_MODES:
        with span("bench.ladder", mode=mode):
            start = monotonic()
            grids = runs[mode]()
            wall = monotonic() - start
        cells = sum(len(grid.outcomes) for grid in grids)
        attacked = sum(
            outcome.adversarial_images.shape[0]
            for grid in grids
            for outcome in grid.outcomes
        )
        modes[mode] = {
            "wall_s": wall,
            "cells": cells,
            "cells_per_s": cells / wall if wall > 0 else float("inf"),
            "images": attacked,
            "images_per_s": attacked / wall if wall > 0 else float("inf"),
        }
        log(
            f"  ladder[{mode}]: {wall:.2f}s for {cells} cells "
            f"({modes[mode]['cells_per_s']:.2f} cells/s)"
        )
    baseline = modes[LADDER_BENCH_MODES[0]]["wall_s"]
    return {
        "recommenders": list(names),
        "modes": modes,
        "speedup": {
            mode: baseline / modes[mode]["wall_s"]
            for mode in LADDER_BENCH_MODES[1:]
            if modes[mode]["wall_s"] > 0
        },
    }


def run_perf_bench(
    scale: float = 0.003,
    image_size: int = 24,
    repeats: int = 3,
    include_grid: bool = True,
    include_ladder: bool = True,
    out_path: Optional[str] = None,
    verbose: bool = False,
) -> Dict:
    """Run the engine benchmark; returns (and optionally writes) the report.

    Parameters
    ----------
    scale / image_size:
        Size of the synthetic catalog the benchmark trains on.
    repeats:
        Timed repetitions per measurement (best-of is reported).
    include_grid:
        Also time a full ``run_attack_grid`` per mode.  This is the
        end-to-end tentpole number but costs tens of seconds; micro
        benchmarks alone finish much faster.
    include_ladder:
        Also time the two-recommender grid per engine (the per-cell
        baseline "off", then the ε ladder's exact / warm modes) under the
        shipping float32 engine.
        Requires ``include_grid`` (reuses its trained context).
    out_path:
        When given, the report is written there as JSON.
    """

    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    def log(message: str) -> None:
        if verbose:
            print(f"[bench] {message}", flush=True)

    dataset = amazon_men_like(scale=scale, image_size=image_size, seed=1)
    model, report = train_catalog_classifier(
        dataset.images,
        dataset.item_categories,
        dataset.num_categories,
        widths=(8, 16),
        blocks_per_stage=(1, 1),
        config=ClassifierConfig(epochs=12, batch_size=32, learning_rate=0.08, seed=0),
    )
    log(f"classifier trained: accuracy {report.final_train_accuracy:.3f}")

    images = dataset.images
    target = int(dataset.item_categories[0])
    batch = images[:32]
    batch_labels = np.asarray(dataset.item_categories[:32], dtype=np.int64)

    grid_context = None
    if include_grid:
        # One trained context serves both modes: the classifier is cast
        # losslessly per mode, so grid timings compare identical weights.
        clear_context_registry()
        grid_context = build_context(men_config(scale=scale, image_size=image_size))
        log("attack-grid context trained")

    results: Dict[str, Dict] = {}
    for mode_name, mode in BENCH_MODES.items():
        dtype = np.dtype(mode["dtype"])
        log(
            f"mode {mode_name}: dtype={dtype.name} folding={mode['folding']} "
            f"freeze_params={mode['freeze_params']}"
        )
        with span("bench.mode", mode=mode_name, dtype=dtype.name), compute_dtype(
            dtype
        ), conv_bn_folding(mode["folding"]), parameter_freezing(mode["freeze_params"]):
            model.to_dtype(dtype)

            def forward() -> None:
                model.predict_proba(images)

            def backward() -> None:
                model.train()
                try:
                    x = Tensor(np.asarray(batch, dtype=dtype))
                    cross_entropy(model(x), batch_labels).backward()
                finally:
                    model.eval()

            def fgsm() -> None:
                FGSM(model, 8 / 255).attack(batch, target_class=target)

            def pgd() -> None:
                PGD(model, 8 / 255, num_steps=10, seed=0).attack(
                    batch, target_class=target
                )

            mode_report = {
                "dtype": dtype.name,
                "conv_bn_folding": bool(mode["folding"]),
                "parameter_freezing": bool(mode["freeze_params"]),
                "forward": _timing(
                    _best_wall_time(forward, repeats), images.shape[0], "images/s"
                ),
                "backward": _timing(
                    _best_wall_time(backward, repeats), batch.shape[0], "images/s"
                ),
                "fgsm": _timing(
                    _best_wall_time(fgsm, repeats), batch.shape[0], "images/s"
                ),
                "pgd": _timing(
                    _best_wall_time(pgd, repeats), batch.shape[0], "images/s"
                ),
            }

            if grid_context is not None:
                # The recommenders compute in plain float64 numpy either
                # way; the engine mode governs every CNN pass the grid
                # makes (catalog scan, attacks, re-extraction).
                grid_context.classifier.to_dtype(dtype)
                start = monotonic()
                grid = run_attack_grid(grid_context, "VBPR")
                wall = monotonic() - start
                mode_report["attack_grid"] = _timing(wall, len(grid.outcomes), "cells/s")
                log(f"  attack_grid: {wall:.2f}s for {len(grid.outcomes)} cells")

        results[mode_name] = mode_report

    # Leave the models in the shipping configuration.
    model.to_dtype(np.float32)
    if grid_context is not None:
        grid_context.classifier.to_dtype(np.float32)

    ladder_report = None
    if include_ladder and grid_context is not None:
        log("ladder section: two-recommender grid per ladder mode")
        ladder_report = _ladder_bench(grid_context, log)

    speedup = {}
    baseline, optimized = results["float64_baseline"], results["float32_optimized"]
    for key in ("forward", "backward", "fgsm", "pgd", "attack_grid"):
        if key in baseline and key in optimized:
            speedup[key] = baseline[key]["wall_s"] / optimized[key]["wall_s"]

    payload = {
        "benchmark": "perf_engine",
        "config": {
            "scale": scale,
            "image_size": image_size,
            "repeats": repeats,
            "catalog_images": int(images.shape[0]),
            "attack_batch": int(batch.shape[0]),
            "include_grid": include_grid,
        },
        "modes": results,
        "speedup": speedup,
    }
    if ladder_report is not None:
        payload["ladder"] = ladder_report

    registry = active_metrics()
    if registry is not None:
        payload["metrics"] = registry.snapshot()

    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        log(f"report written to {out_path}")
    return payload


def format_perf_report(payload: Dict) -> str:
    """Human-readable summary of a :func:`run_perf_bench` report."""
    lines = ["Perf engine benchmark (best-of wall times)"]
    keys = [k for k in ("forward", "backward", "fgsm", "pgd", "attack_grid")
            if k in payload["speedup"]]
    lines.append(f"{'stage':12s} {'float64 (s)':>12s} {'float32 (s)':>12s} {'speedup':>9s}")
    for key in keys:
        base = payload["modes"]["float64_baseline"][key]["wall_s"]
        opt = payload["modes"]["float32_optimized"][key]["wall_s"]
        lines.append(
            f"{key:12s} {base:12.4f} {opt:12.4f} {payload['speedup'][key]:8.2f}x"
        )
    ladder = payload.get("ladder")
    if ladder:
        lines.append("")
        lines.append("Ladder grid benchmark (VBPR+AMR, float32 engine)")
        lines.append(
            f"{'mode':8s} {'wall (s)':>10s} {'cells/s':>9s} {'img/s':>9s} {'speedup':>9s}"
        )
        for mode in LADDER_BENCH_MODES:
            timing = ladder["modes"][mode]
            speed = ladder["speedup"].get(mode)
            speed_text = f"{speed:8.2f}x" if speed is not None else f"{'—':>9s}"
            lines.append(
                f"{mode:8s} {timing['wall_s']:10.3f} {timing['cells_per_s']:9.2f} "
                f"{timing['images_per_s']:9.1f} {speed_text}"
            )
    return "\n".join(lines)
