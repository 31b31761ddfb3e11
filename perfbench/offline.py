"""Offline workloads: the cold paper DAG and the defended-cube rerun.

``dag_cold`` runs ``StageRunner.run()`` over the full 8-stage Men-like
DAG into a fresh, empty ``ArtifactStore`` per repetition: training and
artifact writes dominate.  ``cube_rerun`` primes a store once, then
reruns ``MatrixRunner.run(force=<every cell node>)`` so every
repetition re-crafts and re-measures all cells while every trained
artifact is read back from the store: no training at all.
"""

from __future__ import annotations

import json
import math
import os
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from common import HostSpeed, ScratchDirs, WorkloadResult, self_peak_rss_mb
from layers import LayerClock, perf_counter

#: The pinned DAG configuration (Men-like catalog, exact ε-ladder).
#: A repetition lasts well under a second, so a run holds dozens of them.
DAG_CONFIG = dict(
    scale=0.002,
    image_size=16,
    classifier_epochs=1,
    recommender_epochs=20,
    amr_pretrain_epochs=10,
    cutoff=20,
    pgd_steps=2,
    ladder_mode="exact",
)
#: Tiny mode (the benchmark's own tests) and the dag_cold warm-up pass.
TINY_DAG_CONFIG = dict(
    scale=0.002,
    image_size=16,
    classifier_epochs=1,
    recommender_epochs=2,
    amr_pretrain_epochs=1,
    cutoff=10,
    pgd_steps=2,
    epsilons_255=(8.0,),
    ladder_mode="exact",
)
CUBE_AXES = dict(
    attacks=("FGSM", "PGD", "MIM"),
    defenses=("none", "squeeze"),
    recommenders=("VBPR", "AMR", "BPRMF"),
)
CUBE_MIM_STEPS = 2

#: The pinned config seed.  The work a run does depends on the config
#: seed: it decides which items the trained classifier puts in each
#: scenario's source category, and so the attacked cohorts (the cube
#: rerun took 1.2-6.2 s across config seeds 1-5; a few seeds leave a
#: cohort empty, and the DAG then refuses the grid).  The benchmark seed
#: picks the grid cell the per-cell oracle re-checks instead.
CONFIG_SEED = 0

#: Set-ups per run (``setup_s`` is their median) and the fewest
#: measured repetitions a run makes even past its time budget.
SETUP_REPEATS = {False: 3, True: 2}
MIN_REPS = {False: 3, True: 2}
#: Repetitions of each side of the traced run (untraced, then traced);
#: per-layer values are means over the traced repetitions.
TRACE_REPS = {False: 5, True: 1}

ROW_KEY = ("defense", "recommender", "source", "target", "attack", "epsilon_255")
ROW_VALUES = (
    "chr_source_before",
    "chr_target_before",
    "chr_source_after",
    "success_rate",
    "psnr",
    "ssim",
    "psm",
)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_TOLERANCE = 1e-6
ORACLE_TOLERANCE = 1e-9


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #


def row_key(row: Dict) -> Tuple:
    return tuple(row.get(key, "none") for key in ROW_KEY)


def row_values(row: Dict) -> Tuple[float, ...]:
    return tuple(float(row[key]) for key in ROW_VALUES)


def bad_rows(rows: Sequence[Dict]) -> List[str]:
    """Rows with a non-finite or out-of-range measurement."""
    problems = []
    for row in rows:
        values = row_values(row)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite row {row_key(row)}")
        elif not (
            0.0 <= row["success_rate"] <= 1.0
            and all(0.0 <= row[k] <= 100.0 for k in ROW_VALUES[:3])
            and row["ssim"] <= 1.0 + 1e-9
            and row["psnr"] > 0.0
        ):
            problems.append(f"out-of-range row {row_key(row)}")
    return problems


def mismatched_rows(
    rows: Sequence[Dict], reference: Sequence[Dict], tolerance: float = 0.0
) -> int:
    """Rows of ``reference`` that ``rows`` lacks or disagrees with."""
    have = {row_key(row): row_values(row) for row in rows}
    mismatches = 0
    for ref in reference:
        got = have.get(row_key(ref))
        want = row_values(ref)
        if got is None or any(
            abs(a - b) > tolerance * max(1.0, abs(b)) for a, b in zip(got, want)
        ):
            mismatches += 1
    return mismatches


def check_reference(
    result: WorkloadResult, workload: str, tiny: bool, rows: Sequence[Dict]
) -> None:
    """Compare against the rows recorded for the pinned config."""
    reference = load_reference().get(workload, {}).get("tiny" if tiny else "full")
    if reference is None:
        result.fail(1, f"no reference rows recorded for {workload}")
        return
    result.attempted += len(reference["rows"])
    missing = mismatched_rows(rows, reference["rows"], REFERENCE_TOLERANCE)
    if missing:
        result.fail(missing, f"{missing} row(s) differ from the recorded reference")


def load_reference() -> Dict:
    """``{workload: {"full"|"tiny": {"config_seed", "rows"}}}``."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        reference: Dict = {}
        for entry in json.load(handle):
            for workload, modes in entry.items():
                reference.setdefault(workload, {}).update(modes)
        return reference


def record_reference(workload: str, tiny: bool, rows: Sequence[Dict]) -> None:
    reference = load_reference()
    reference.setdefault(workload, {})["tiny" if tiny else "full"] = {
        "config_seed": CONFIG_SEED,
        "rows": [
            {**dict(zip(ROW_KEY, row_key(row))), **{k: float(row[k]) for k in ROW_VALUES}}
            for row in rows
        ],
    }
    # One row per line keeps the file diffable.
    lines = []
    for workload in sorted(reference):
        for mode in sorted(reference[workload]):
            entry = reference[workload][mode]
            rows = ",\n".join(json.dumps(row, sort_keys=True) for row in entry["rows"])
            lines.append(
                f'"{workload}": {{"{mode}": {{"config_seed": {entry["config_seed"]}, '
                f'"rows": [\n{rows}\n]}}}}'
            )
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join("{" + line + "}" for line in lines) + "\n]\n")


def check_rep(
    result: WorkloadResult,
    rows: Sequence[Dict],
    expected: int,
    baseline: Optional[Sequence[Dict]],
) -> None:
    """One repetition's rows: count, finiteness, and bitwise repeatability."""
    result.attempted += expected
    if len(rows) != expected:
        result.fail(abs(expected - len(rows)), f"{len(rows)} rows, expected {expected}")
    problems = bad_rows(rows)
    if problems:
        result.fail(len(problems), problems[0])
    if baseline is not None:
        differing = mismatched_rows(rows, baseline)
        if differing:
            result.fail(differing, f"{differing} row(s) changed between repetitions")


# --------------------------------------------------------------------- #
# Layers
# --------------------------------------------------------------------- #


def install_layers(clock: LayerClock, profiler) -> Dict[str, int]:
    """Wrap each offline layer's public entry points; returns byte counters."""
    from repro.artifacts.store import ArtifactStore
    from repro.attacks.ladder import EpsilonLadder
    from repro.core import pipeline
    from repro.defenses.squeezing import FeatureSqueezer
    from repro.experiments import matrix, runner, stages
    from repro.features.extractor import FeatureExtractor
    from repro.features.trainer import ClassifierTrainer
    from repro.nn.classifier import ImageClassifier
    from repro.nn.tensor import Tensor
    from repro.recommenders.amr import AMR
    from repro.recommenders.base import Recommender
    from repro.recommenders.bprmf import BPRMF
    from repro.recommenders.vbpr import VBPR

    counters = {"written": 0, "read": 0}

    def wrote(ref) -> None:
        counters["written"] += os.path.getsize(ref.path)

    def read(loaded) -> None:
        counters["read"] += os.path.getsize(loaded.ref.path)

    # The profiler charges each op the time since the previous op; a
    # forward or backward entry closes that interval so host work between
    # passes (batching, optimiser steps) is not billed to the next op.
    reset = profiler.reset_mark if profiler is not None else None

    clock.wrap(stages, "amazon_men_like", "data.generate")
    clock.wrap(stages, "amazon_women_like", "data.generate")
    clock.wrap(ClassifierTrainer, "fit", "features.train")
    clock.wrap(FeatureExtractor, "fit_from_raw", "features.extract")
    clock.wrap(FeatureExtractor, "transform_raw_features", "features.extract")
    for name in ("forward", "forward_with_features", "features"):
        clock.wrap(ImageClassifier, name, "nn.forward", on_enter=reset)
    clock.wrap(Tensor, "backward", "nn.backward", on_enter=reset)
    for model in (VBPR, AMR, BPRMF):
        clock.wrap(model, "fit", "recommenders.fit")
    for model in (VBPR, BPRMF):
        clock.wrap(model, "score_all", "recommenders.score")
    clock.wrap(Recommender, "top_n", "recommenders.score")
    clock.wrap(EpsilonLadder, "run", "attacks.ladder")
    clock.wrap(matrix, "fallback_ladder_cells", "attacks.per_cell")
    clock.wrap(runner, "fallback_ladder_cells", "attacks.per_cell")
    clock.wrap(pipeline.TAaMRPipeline, "outcomes_from_cells", "core.rescore")
    for module in (pipeline, matrix):
        for name in ("batch_psnr", "batch_ssim", "psm_from_features"):
            clock.wrap(module, name, "metrics.visual")
    clock.wrap(FeatureSqueezer, "__call__", "defenses")
    clock.wrap(ArtifactStore, "save", "artifacts.save", on_exit=wrote)
    clock.wrap(ArtifactStore, "load", "artifacts.load", on_exit=read)
    return counters


def layer_metrics(
    clock: LayerClock,
    profiler,
    byte_counters: Dict[str, int],
    reps: int,
    rows: Sequence[Dict],
    stage_outcomes,
) -> Dict[str, float]:
    """Per-repetition means of every layer the traced repetitions ran."""
    self_s, calls = clock.self_s, clock.calls
    layers: Dict[str, float] = {
        "data.generate_s": self_s["data.generate"],
        "features.train_s": self_s["features.train"],
        "features.extract_s": self_s["features.extract"],
        "recommenders.fit_s": self_s["recommenders.fit"],
        "nn.forward_s": self_s["nn.forward"],
        "nn.backward_s": self_s["nn.backward"],
        "attacks.ladder_s": self_s["attacks.ladder"],
        "attacks.ladder_calls": calls["attacks.ladder"],
        "attacks.per_cell_s": self_s["attacks.per_cell"],
        "core.rescore_s": self_s["core.rescore"],
        "recommenders.score_s": self_s["recommenders.score"],
        "recommenders.score_calls": calls["recommenders.score"],
        "metrics.visual_s": self_s["metrics.visual"],
        "defenses.s": self_s["defenses"],
        "artifacts.save_s": self_s["artifacts.save"],
        "artifacts.load_s": self_s["artifacts.load"],
        "artifacts.bytes_written": byte_counters["written"],
        "artifacts.bytes_read": byte_counters["read"],
        "unattributed_s": clock.unattributed_s,
    }
    layers = {name: value / reps for name, value in layers.items()}
    layers["unattributed_frac"] = clock.unattributed_s / clock.wall_s
    # Exact image-pass accounting from AttackResult.metadata (stored on
    # every grid/cube row): forward + backward passes per attacked image.
    images = sum(int(row["num_attacked_items"]) for row in rows)
    passes = sum(float(row["attack_forwards"]) + float(row["attack_backwards"]) for row in rows)
    exits = sum(int(row["early_exited"]) for row in rows)
    layers["attacks.passes_per_image"] = passes / images if images else 0.0
    layers["attacks.early_exit_frac"] = exits / images if images else 0.0
    if profiler is not None:
        for stat in profiler.table():
            op = stat.op.strip("_")
            layers[f"nn.op.{op}.s"] = stat.total_s / reps
            layers[f"nn.op.{op}.bytes"] = stat.output_bytes / reps
    for outcome in stage_outcomes:
        layers[f"experiments.stage.{outcome.name}.s"] = outcome.seconds
    return layers


def traced_reps(run_once, reps: int, on_rep):
    """Repetitions under the layer wrappers and the op profiler."""
    from repro.telemetry import telemetry_session

    clock, walls = LayerClock(), []
    with telemetry_session(profile=True) as session:
        counters = install_layers(clock, session.profiler)
        try:
            for _ in range(reps):
                outcome, wall = clock.measure(run_once)
                walls.append(wall)
                on_rep(outcome)
        finally:
            clock.restore()
    return outcome, walls, clock, session.profiler, counters


def trace_layers(
    result: WorkloadResult, run_once, on_rep, tiny: bool, speed: HostSpeed, rows_of, stages_of
):
    """The untraced baseline, then the traced repetitions, into ``result``."""
    reps = TRACE_REPS[tiny]
    baseline = _measure_reps(run_once, 0.0, reps, on_rep, speed)
    outcome, walls, clock, profiler, counters = traced_reps(run_once, reps, on_rep)
    result.layers = layer_metrics(
        clock, profiler, counters, reps, rows_of(outcome), stages_of(outcome)
    )
    result.layers["trace_overhead_frac"] = median(walls) / median(baseline.walls) - 1.0
    return baseline


# --------------------------------------------------------------------- #
# Workload drivers
# --------------------------------------------------------------------- #


class Reps:
    """Walls of measured repetitions, raw and at the reference host speed."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.scaled: List[float] = []


def _measure_reps(
    run_once, seconds: float, min_reps: int, on_rep, speed: HostSpeed
) -> Reps:
    """Repetitions until ``seconds`` are up (at least ``min_reps``)."""
    reps = Reps()
    deadline = perf_counter() + seconds
    while len(reps.walls) < min_reps or perf_counter() < deadline:
        outcome, wall, scaled = speed.timed(run_once)
        reps.walls.append(wall)
        reps.scaled.append(scaled)
        on_rep(outcome)
    return reps


def _setup(result: WorkloadResult, set_up, repeats: int, speed: HostSpeed):
    """Set up ``repeats`` times; ``setup_s`` is the median; keeps the last."""
    setups = []
    for _ in range(repeats):
        outcome, _, scaled = speed.timed(set_up)
        setups.append(scaled)
    result.samples["setup_s"] = setups
    result.metrics["setup_s"] = median(setups)
    return outcome


def _end_to_end(result: WorkloadResult, reps: Reps, rows: int) -> None:
    walls = reps.scaled
    result.samples.update(
        wall_s=walls,
        throughput_per_s=[rows / wall for wall in walls],
        latency_p50_ms=[1e3 * wall for wall in walls],
    )
    level = median(walls)
    result.metrics.update(
        wall_s=level,
        throughput_per_s=rows / level,
        latency_p50_ms=1e3 * level,
        peak_rss_mb=self_peak_rss_mb(),
    )


def run_dag_cold(
    seed: int, seconds: float, trace: bool, tiny: bool, record: bool = False
) -> WorkloadResult:
    from repro.artifacts import ArtifactStore
    from repro.core import paper_scenarios
    from repro.experiments.config import men_config
    from repro.experiments.stages import STAGE_ORDER, StageRunner

    config = men_config(seed=CONFIG_SEED, **(TINY_DAG_CONFIG if tiny else DAG_CONFIG))
    warmup = men_config(seed=CONFIG_SEED, **TINY_DAG_CONFIG)
    result = WorkloadResult()
    dirs = ScratchDirs()
    try:
        # Set-up: a warm-up pass of the tiny DAG's training stages so lazy
        # imports and the allocator's first growth land outside the
        # measured region.  It stops before the attack grid, which needs
        # a classifier trained well enough to populate every category.
        def warm_up():
            path = dirs.fresh("warmup")
            StageRunner(warmup, ArtifactStore(path)).run(stages=["clean_scores"])
            dirs.remove(path)

        speed = HostSpeed()
        _setup(result, warm_up, SETUP_REPEATS[tiny], speed)

        def run_once():
            return StageRunner(config, ArtifactStore(dirs.fresh("dag"))).run()

        state: Dict = {}

        def on_rep(outcome) -> None:
            results, manifest = outcome
            dirs.remove(manifest.store_root)
            if "rows" not in state:
                state["rows"] = results.grid_rows
                state["results"] = results
                state["expected"] = (
                    2
                    * len(paper_scenarios(results.dataset.name, results.dataset.registry))
                    * len(config.epsilons_255)
                    * 2
                )
            check_rep(result, results.grid_rows, state["expected"], state.get("baseline"))
            state.setdefault("baseline", results.grid_rows)
            if manifest.built != list(STAGE_ORDER) or not results.tables_text:
                result.fail(1, f"stages not all built into the empty store: {manifest.built}")

        if trace:
            reps = trace_layers(
                result,
                run_once,
                on_rep,
                tiny,
                speed,
                rows_of=lambda outcome: outcome[0].grid_rows,
                stages_of=lambda outcome: outcome[1].stages,
            )
        else:
            reps = _measure_reps(run_once, seconds, MIN_REPS[tiny], on_rep, speed)
        _end_to_end(result, reps, state["expected"])

        check_dag_oracle(result, config, state["results"], seed)
        if record:
            record_reference("dag_cold", tiny, state["rows"])
        check_reference(result, "dag_cold", tiny, state["rows"])
    finally:
        dirs.close()
    return result


def check_dag_oracle(result: WorkloadResult, config, results, seed: int) -> None:
    """Recompute one grid cell through the per-cell attack path.

    The batched ε-ladder must reproduce the per-cell FGSM/PGD oracle;
    the sampled cell (drawn from the seed) is re-run through
    ``TAaMRPipeline.attack_category`` and compared with its grid row.
    """
    from repro.attacks import FGSM, PGD
    from repro.attacks.projections import epsilon_from_255
    from repro.core import TAaMRPipeline
    from repro.rng import derive_rng

    rows = results.grid_rows
    row = rows[int(derive_rng(seed, "perfbench.oracle").integers(len(rows)))]
    name = row["recommender"]
    pipeline = TAaMRPipeline(
        results.dataset,
        results.extractor,
        results.recommender(name),
        cutoff=config.cutoff,
        precomputed=results.catalog_state(name),
    )
    epsilon = epsilon_from_255(row["epsilon_255"])
    attack = (
        FGSM(results.classifier, epsilon)
        if row["attack"] == "FGSM"
        else PGD(results.classifier, epsilon, num_steps=config.pgd_steps, seed=config.seed)
    )
    scenario = next(
        s
        for s in _scenarios(results)
        if (s.source, s.target) == (row["source"], row["target"])
    )
    outcome = pipeline.attack_category(scenario, attack, attack_name=row["attack"])
    oracle = {
        **row,
        "chr_source_after": outcome.chr_source_after,
        "success_rate": outcome.success_rate,
        "psnr": outcome.visual.psnr,
        "ssim": outcome.visual.ssim,
        "psm": outcome.visual.psm,
    }
    result.attempted += 1
    if mismatched_rows(rows, [oracle], ORACLE_TOLERANCE):
        result.fail(1, f"grid row {row_key(row)} differs from the per-cell oracle")


def _scenarios(results):
    from repro.core import paper_scenarios

    return paper_scenarios(results.dataset.name, results.dataset.registry)


def run_cube_rerun(
    seed: int, seconds: float, trace: bool, tiny: bool, record: bool = False
) -> WorkloadResult:
    from repro.artifacts import ArtifactStore
    from repro.experiments.config import men_config
    from repro.experiments.matrix import MatrixConfig, MatrixRunner, matrix_node_order
    from repro.experiments.stages import StageRunner

    config = men_config(seed=CONFIG_SEED, **(TINY_DAG_CONFIG if tiny else DAG_CONFIG))
    cube = MatrixConfig(base=config, mim_steps=CUBE_MIM_STEPS, **CUBE_AXES)
    cells = [name for name, _ in matrix_node_order(cube) if name.startswith("cell:")]
    result = WorkloadResult()
    dirs = ScratchDirs()
    try:
        # Set-up: prime a fresh store (trains every base stage, the
        # squeeze defense and its recommenders, builds every cell).
        def prime():
            store = ArtifactStore(dirs.fresh("cube"))
            return store, MatrixRunner(cube, store).run()[0]

        speed = HostSpeed()
        store, primed = _setup(result, prime, SETUP_REPEATS[tiny], speed)

        scenarios = len(_scenarios(primed.base))
        expected = len(cells) * scenarios * len(config.epsilons_255)
        check_rep(result, primed.rows, expected, None)
        grid, _ = StageRunner(config, store).run(stages=["attack_grid"])
        undefended = [{**row, "defense": "none"} for row in grid.grid_rows]
        result.attempted += len(undefended)
        differing = mismatched_rows(primed.rows, undefended)
        if differing:
            result.fail(differing, f"{differing} undefended cube row(s) differ from attack_grid")

        def run_once():
            return MatrixRunner(cube, store).run(force=cells)

        def on_rep(outcome) -> None:
            results, manifest = outcome
            check_rep(result, results.rows, expected, primed.rows)
            built = sorted(node.name for node in manifest.nodes if node.action == "built")
            rebuilt_base = [o.name for o in manifest.base_stages if o.action != "hit"]
            if built != sorted(cells) or rebuilt_base:
                result.fail(1, "a rerun rebuilt something other than exactly the cells")

        if trace:
            reps = trace_layers(
                result,
                run_once,
                on_rep,
                tiny,
                speed,
                rows_of=lambda outcome: outcome[0].rows,
                stages_of=lambda outcome: outcome[1].base_stages,
            )
        else:
            reps = _measure_reps(run_once, seconds, MIN_REPS[tiny], on_rep, speed)
        _end_to_end(result, reps, expected)

        if record:
            record_reference("cube_rerun", tiny, primed.rows)
        check_reference(result, "cube_rerun", tiny, primed.rows)
    finally:
        dirs.close()
    return result
