"""Experiment runners: the attack grid behind Tables II, III and IV.

One grid run per recommender covers every (scenario × attack × ε) cell;
Table II reads the CHR columns, Table III the success rates, Table IV
the visual metrics — exactly how the paper derives all three tables
from one set of attack executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..attacks import (
    FGSM,
    LADDER_ATTACKS,
    MIM,
    PGD,
    CarliniWagnerL2,
    EpsilonLadder,
    LadderCell,
    NESAttack,
)
from ..attacks.projections import epsilon_from_255
from ..core import (
    AttackOutcome,
    AttackScenario,
    FeatureScratch,
    TAaMRPipeline,
    invoke_attack,
    paper_scenarios,
)
from ..telemetry import active_metrics, span
from .parallel import forked_map
from .stages import StageResults

GRID_ATTACK_NAMES = ("FGSM", "PGD")

# Attacks the grid can run.  FGSM, PGD and MIM run on the batched
# ε-ladder (LADDER_ATTACKS); CW and NES have no ladder path, so the grid
# falls back to one per-cell run per (scenario, attack, ε) for them (see
# fallback_ladder_cells).
CELL_ATTACK_NAMES = ("FGSM", "PGD", "CW", "MIM", "NES")


@dataclass
class AttackGrid:
    """All outcomes of one recommender's attack grid plus clean context."""

    recommender_name: str
    pipeline: TAaMRPipeline
    scenarios: List[AttackScenario]
    outcomes: List[AttackOutcome]

    def cells(
        self,
        scenario: Optional[AttackScenario] = None,
        attack_name: Optional[str] = None,
    ) -> List[AttackOutcome]:
        selected = self.outcomes
        if scenario is not None:
            selected = [o for o in selected if o.scenario == scenario]
        if attack_name is not None:
            selected = [o for o in selected if o.attack_name == attack_name]
        return selected


def build_cell_attack(
    name: str,
    classifier,
    epsilon_255: float,
    pgd_steps: int = 10,
    seed: int = 0,
    options: Optional[Dict[str, float]] = None,
):
    """One configured attack instance for a single grid cell.

    ``options`` carries attack-specific knobs (the scenario matrix
    threads its ``MatrixConfig`` fields through here); unknown keys for
    the chosen attack raise so config typos cannot silently no-op.
    CW minimises l2 rather than respecting an l∞ budget, so its ε rung
    scales the misclassification weight ``c`` instead (ε=8 keeps the
    configured base value).
    """
    epsilon = epsilon_from_255(epsilon_255)
    options = dict(options or {})
    if name == "FGSM":
        attack = FGSM(classifier, epsilon)
    elif name == "PGD":
        attack = PGD(classifier, epsilon, num_steps=pgd_steps, seed=seed)
    elif name == "MIM":
        attack = MIM(
            classifier,
            epsilon,
            num_steps=int(options.pop("num_steps", pgd_steps)),
            decay=float(options.pop("decay", 1.0)),
        )
    elif name == "NES":
        attack = NESAttack(
            classifier,
            epsilon,
            num_steps=int(options.pop("num_steps", 5)),
            samples_per_step=int(options.pop("samples_per_step", 8)),
            sigma=float(options.pop("sigma", 0.01)),
            seed=seed,
        )
    elif name == "CW":
        attack = CarliniWagnerL2(
            classifier,
            c=float(options.pop("c", 1.0)) * float(epsilon_255) / 8.0,
            learning_rate=float(options.pop("learning_rate", 0.05)),
            num_steps=int(options.pop("num_steps", 30)),
        )
    else:
        raise ValueError(
            f"unknown grid attack '{name}'; supported: {CELL_ATTACK_NAMES}"
        )
    if options:
        raise ValueError(f"unused options for attack '{name}': {sorted(options)}")
    return attack


def build_ladder(
    name: str,
    classifier,
    epsilons: Sequence[float],
    mode: str,
    pgd_steps: int = 10,
    seed: int = 0,
    options: Optional[Dict[str, float]] = None,
) -> EpsilonLadder:
    """The :class:`EpsilonLadder` for one attack of ``LADDER_ATTACKS``.

    Takes the same ``options`` as :func:`build_cell_attack` (MIM's
    ``num_steps`` and ``decay``, defaulting to ``pgd_steps`` and 1.0),
    so a ladder run and the per-cell runs it replaces share one
    configuration.  ``epsilons`` are on the [0, 1] pixel scale.
    """
    options = dict(options or {})
    mim = name == "MIM"
    num_steps = int(options.pop("num_steps", pgd_steps)) if mim else pgd_steps
    decay = float(options.pop("decay", 1.0)) if mim else 1.0
    if options:
        raise ValueError(f"unused options for attack '{name}': {sorted(options)}")
    return EpsilonLadder(
        classifier,
        attack=name,
        epsilons=epsilons,
        mode=mode,
        num_steps=num_steps,
        decay=decay,
        seed=seed,
    )


def fallback_ladder_cells(
    classifier,
    attack_name: str,
    images,
    target_class: int,
    original_predictions,
    epsilons_255: Sequence[float],
    pgd_steps: int,
    seed: int,
    options: Optional[Dict[str, float]] = None,
) -> List[LadderCell]:
    """Per-cell ε sweep for attacks without a batched ladder path (CW, NES).

    Produces the same :class:`LadderCell` list an
    :class:`EpsilonLadder` run would, so downstream measurement
    (``outcomes_from_cells``) is engine-agnostic.  Counted once per
    (scenario, attack) on the ``attack_ladder.fallback`` metric — the
    grid degrades per *attack*, never for the whole grid.
    """
    registry = active_metrics()
    if registry is not None:
        registry.counter("attack_ladder.fallback").inc()
    cells: List[LadderCell] = []
    for epsilon_255 in epsilons_255:
        attack = build_cell_attack(
            attack_name,
            classifier,
            epsilon_255,
            pgd_steps=pgd_steps,
            seed=seed,
            options=options,
        )
        with span(
            "attack_grid.fallback_cell",
            attack=attack_name,
            epsilon_255=float(epsilon_255),
            items=int(images.shape[0]),
        ):
            result = invoke_attack(
                attack, images, target_class, original_predictions=original_predictions
            )
            raw_features = classifier.extract_features(result.adversarial_images)
        cells.append(
            LadderCell(
                epsilon=epsilon_from_255(epsilon_255),
                result=result,
                raw_features=raw_features,
            )
        )
    return cells


#: One recommender's measurement of crafted cells:
#: ``measure(scenario, attack_name, cells)`` → one outcome per cell.
Measure = Callable[[AttackScenario, str, Sequence[LadderCell]], List[AttackOutcome]]


@dataclass(frozen=True)
class Craft:
    """What one grid attack crafts on.

    ``attack`` runs on ``classifier`` (the matrix's TRANSFER crafts PGD
    on a surrogate).  ``classes`` are the catalog classes the adversary
    starts from; ``None`` asks ``classifier`` for the cohort's own
    predictions.  ``options`` are :func:`build_cell_attack` knobs.
    """

    classifier: Any
    attack: str
    classes: Optional[np.ndarray] = None
    options: Optional[Dict[str, float]] = None


def grid_outcomes(
    crafts: Mapping[str, Craft],
    item_classes: np.ndarray,
    dataset,
    scenarios: Sequence[AttackScenario],
    measures: Mapping[str, Measure],
    epsilons_255: Sequence[float],
    pgd_steps: int,
    seed: int,
    mode: str,
    deliver: Optional[Callable[..., List[LadderCell]]] = None,
    skip_empty: bool = False,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
) -> Tuple[Dict[Tuple[str, str], List[AttackOutcome]], List[AttackScenario]]:
    """Craft every (scenario, attack) once and measure it per recommender.

    The one attack-grid loop: the ``attack_grid`` stage,
    :func:`run_attack_grids` and every defense column of the scenario
    matrix run through it.  A scenario's cohort is the items
    ``item_classes`` assigns to its source category.  Attacks of
    ``LADDER_ATTACKS`` run one :class:`EpsilonLadder` per (scenario,
    attack); CW and NES degrade per attack to one per-cell run per ε
    (:func:`fallback_ladder_cells`).  ``deliver(attack_name, cells,
    source_items, target_class)`` may re-measure the crafted cells on
    the deployed system before any recommender sees them.

    Two phases.  *Craft*: one job per (scenario, attack) crafts its
    cells and delivers them; the jobs run side by side on every CPU
    this process may use (:func:`~repro.experiments.parallel.forked_map`),
    serially under any active telemetry collector.  *Measure*: in this
    process, in scenario → attack order, only ``measures`` repeat per
    recommender (the visual metrics are memoised on the cells), for the
    ``pairs`` of ``(attack, recommender)`` asked for (default: every
    pair).  Each job is a pure function of its inputs, so the outcomes
    are bitwise identical however the jobs were spread.

    Returns outcomes per pair in scenario → ε order, plus the scenarios
    skipped for an empty cohort; without ``skip_empty`` an empty cohort
    raises ``ValueError`` instead.
    """
    epsilons = tuple(epsilon_from_255(eps) for eps in epsilons_255)
    registry = dataset.registry
    if pairs is None:
        pairs = [(attack, name) for attack in crafts for name in measures]
    skipped: List[AttackScenario] = []
    jobs: List[Tuple[AttackScenario, str, np.ndarray, int]] = []
    for scenario in scenarios:
        target_class = registry.by_name(scenario.target).category_id
        source_items = np.flatnonzero(
            item_classes == registry.by_name(scenario.source).category_id
        )
        if source_items.size == 0:
            if not skip_empty:
                raise ValueError(
                    f"classifier assigns no items to source category '{scenario.source}'"
                )
            skipped.append(scenario)
            continue
        jobs += [(scenario, attack, source_items, target_class) for attack in crafts]

    def craft_job(index: int) -> List[LadderCell]:
        scenario, attack_name, source_items, target_class = jobs[index]
        craft = crafts[attack_name]
        images = dataset.images[source_items]
        original = (
            craft.classifier.predict(images)
            if craft.classes is None
            else craft.classes[source_items]
        )
        if craft.attack in LADDER_ATTACKS:
            ladder = build_ladder(
                craft.attack,
                craft.classifier,
                epsilons,
                mode,
                pgd_steps=pgd_steps,
                seed=seed,
                options=craft.options,
            )
            with span(
                "attack_grid.ladder",
                source=scenario.source,
                target=scenario.target,
                attack=attack_name,
                mode=mode,
                items=int(source_items.size),
            ):
                cells = ladder.run(images, target_class, original_predictions=original)
        else:
            cells = fallback_ladder_cells(
                craft.classifier,
                craft.attack,
                images,
                target_class,
                original,
                epsilons_255,
                pgd_steps=pgd_steps,
                seed=seed,
                options=craft.options,
            )
        if deliver is not None:
            cells = deliver(attack_name, cells, source_items, target_class)
        return cells

    def describe(index: int) -> str:
        scenario, attack_name = jobs[index][:2]
        return f"crafting {attack_name} on {scenario.source} -> {scenario.target}"

    crafted = forked_map(craft_job, len(jobs), describe)
    outcomes: Dict[Tuple[str, str], List[AttackOutcome]] = {pair: [] for pair in pairs}
    for (scenario, attack_name, _, _), cells in zip(jobs, crafted):
        for name, measure in measures.items():
            if (attack_name, name) in outcomes:
                outcomes[attack_name, name] += measure(scenario, attack_name, cells)
    return outcomes, skipped


def pipeline_measures(pipelines: Mapping[str, TAaMRPipeline]) -> Dict[str, Measure]:
    """Each pipeline's ``outcomes_from_cells``, sharing one feature scratch.

    All pipelines must share one catalog classification (identical
    ``item_classes``/``clean_features``), which holds for the pipelines
    of one stage run or one matrix defense.
    """
    if not pipelines:
        return {}
    scratch = FeatureScratch(next(iter(pipelines.values())).clean_features)
    return {
        name: partial(pipeline.outcomes_from_cells, scratch=scratch)
        for name, pipeline in pipelines.items()
    }


def grid_order(
    outcomes: Mapping[Tuple[str, str], List[AttackOutcome]],
    attack_names: Sequence[str],
    recommender_name: str,
) -> List[AttackOutcome]:
    """One recommender's outcomes in the grid's scenario → ε → attack order."""
    per_attack = [outcomes[(attack, recommender_name)] for attack in attack_names]
    return [outcome for cell in zip(*per_attack) for outcome in cell]


def run_attack_grids(
    context: StageResults,
    recommender_names: Sequence[str] = ("VBPR", "AMR"),
    scenarios: Optional[Sequence[AttackScenario]] = None,
    epsilons_255: Optional[Sequence[float]] = None,
    attack_names: Optional[Sequence[str]] = None,
) -> List[AttackGrid]:
    """Attack several recommenders, sharing ladder cells between them.

    The attacks, adversarial-feature extraction and visual metrics run
    **once** for all recommenders — the dominant cost of a
    multi-recommender grid — and only re-scoring repeats.  The engine
    mode is ``context.config.ladder_mode``: ``"exact"`` cells are
    bitwise-identical to :func:`per_cell_grid`, ``"warm"`` adds warm
    starts and early exits.  ``attack_names`` widens the grid beyond
    FGSM/PGD (see :data:`CELL_ATTACK_NAMES`); MIM runs on the ladder
    too, and CW/NES fall back per attack to per-cell runs.
    """
    config = context.config
    names = [name.upper() for name in recommender_names]
    pipelines = context.pipelines(names, config.cutoff)
    resolved_scenarios = (
        list(scenarios)
        if scenarios is not None
        else paper_scenarios(context.dataset.name, context.dataset.registry)
    )
    attacks = tuple(attack_names) if attack_names is not None else GRID_ATTACK_NAMES
    outcomes, _ = grid_outcomes(
        {name: Craft(context.classifier, name, context.item_classes) for name in attacks},
        context.item_classes,
        context.dataset,
        resolved_scenarios,
        pipeline_measures(pipelines),
        tuple(epsilons_255) if epsilons_255 is not None else config.epsilons_255,
        config.pgd_steps,
        config.seed,
        config.ladder_mode,
    )
    return [
        AttackGrid(
            recommender_name=name,
            pipeline=pipelines[name],
            scenarios=resolved_scenarios,
            outcomes=grid_order(outcomes, attacks, name),
        )
        for name in names
    ]


def run_attack_grid(
    context: StageResults,
    recommender_name: str,
    scenarios: Optional[Sequence[AttackScenario]] = None,
    epsilons_255: Optional[Sequence[float]] = None,
    attack_names: Optional[Sequence[str]] = None,
) -> AttackGrid:
    """Attack one recommender across all scenarios, attacks and budgets."""
    return run_attack_grids(
        context, (recommender_name,), scenarios, epsilons_255, attack_names
    )[0]


def per_cell_grid(context: StageResults, recommender_name: str) -> AttackGrid:
    """The per-cell oracle: one attack per (scenario, ε, FGSM/PGD) cell.

    Each cell builds its own FGSM/PGD instance and runs it through
    :meth:`TAaMRPipeline.attack_category` — the unbatched path the
    ε ladder must reproduce bit for bit in ``"exact"`` mode.  Not an
    engine mode: the ladder tests call it directly.
    """
    config = context.config
    pipeline = context.pipelines([recommender_name], config.cutoff)[recommender_name]
    scenarios = paper_scenarios(context.dataset.name, context.dataset.registry)
    outcomes: List[AttackOutcome] = []
    for scenario in scenarios:
        for epsilon_255 in config.epsilons_255:
            for attack_name in GRID_ATTACK_NAMES:
                attack = build_cell_attack(
                    attack_name,
                    context.classifier,
                    epsilon_255,
                    pgd_steps=config.pgd_steps,
                    seed=config.seed,
                )
                with span(
                    "attack_grid.cell",
                    recommender=recommender_name.upper(),
                    source=scenario.source,
                    target=scenario.target,
                    attack=attack_name,
                    epsilon_255=float(epsilon_255),
                ):
                    outcomes.append(
                        pipeline.attack_category(
                            scenario, attack, attack_name=attack_name
                        )
                    )
    return AttackGrid(
        recommender_name=recommender_name.upper(),
        pipeline=pipeline,
        scenarios=scenarios,
        outcomes=outcomes,
    )


# --------------------------------------------------------------------- #
# Table formatters (print the same rows the paper reports)
# --------------------------------------------------------------------- #


def format_table1(stats: Dict[str, Dict[str, float]]) -> str:
    """Table I analog: dataset statistics with the paper's reference row."""
    lines = [
        "Table I — dataset statistics (synthetic analog vs paper reference)",
        f"{'Dataset':28s} {'|U|':>8s} {'|I|':>8s} {'|S|':>9s} {'|S|/|U|':>8s}",
    ]
    for name, row in stats.items():
        lines.append(
            f"{name:28s} {row['users']:8.0f} {row['items']:8.0f} "
            f"{row['interactions']:9.0f} {row['interactions_per_user']:8.2f}"
        )
    return "\n".join(lines)


def format_table2(grids: Sequence[AttackGrid], epsilons_255: Sequence[float]) -> str:
    """Table II analog: CHR@N before/after per model × attack × scenario × ε."""
    lines = ["Table II — CHR@N (%) after targeted attacks (clean value in header)"]
    for grid in grids:
        for scenario in grid.scenarios:
            outcomes = grid.cells(scenario=scenario)
            if not outcomes:
                continue
            head = outcomes[0]
            lines.append(
                f"\n{grid.recommender_name}: {scenario.source}"
                f"({head.chr_source_before:.3f}) → {scenario.target}"
                f"({head.chr_target_before:.3f})  "
                f"[{'similar' if scenario.semantically_similar else 'dissimilar'}]"
            )
            header = "  attack " + "".join(f"  ε={eps:<6.0f}" for eps in epsilons_255)
            lines.append(header)
            for attack_name in ("FGSM", "PGD"):
                cells = {
                    o.epsilon_255: o.chr_source_after
                    for o in grid.cells(scenario=scenario, attack_name=attack_name)
                }
                row = "  " + f"{attack_name:7s}" + "".join(
                    f"  {cells.get(float(eps), float('nan')):<8.3f}" for eps in epsilons_255
                )
                lines.append(row)
    return "\n".join(lines)


def format_table3(grids: Sequence[AttackGrid], epsilons_255: Sequence[float]) -> str:
    """Table III analog: targeted attack success probability."""
    lines = ["Table III — targeted misclassification success probability"]
    seen = set()
    for grid in grids:
        for scenario in grid.scenarios:
            key = (scenario.source, scenario.target)
            if key in seen:
                continue  # success rate is a classifier property, not per-model
            seen.add(key)
            lines.append(f"\n{scenario.source} → {scenario.target}")
            lines.append("  attack " + "".join(f"  ε={eps:<7.0f}" for eps in epsilons_255))
            for attack_name in ("FGSM", "PGD"):
                cells = {
                    o.epsilon_255: o.success_rate
                    for o in grid.cells(scenario=scenario, attack_name=attack_name)
                }
                row = "  " + f"{attack_name:7s}" + "".join(
                    f"  {100 * cells.get(float(eps), float('nan')):<8.2f}%"
                    for eps in epsilons_255
                )
                lines.append(row)
    return "\n".join(lines)


def format_table4(grid: AttackGrid, epsilons_255: Sequence[float]) -> str:
    """Table IV analog: average PSNR / SSIM / PSM per attack × ε."""
    lines = [f"Table IV — average visual quality ({grid.recommender_name} grid)"]
    for metric in ("PSNR", "SSIM", "PSM"):
        lines.append(f"\n{metric}")
        lines.append("  attack " + "".join(f"  ε={eps:<8.0f}" for eps in epsilons_255))
        for attack_name in ("FGSM", "PGD"):
            values = {}
            for eps in epsilons_255:
                cells = [
                    o
                    for o in grid.cells(attack_name=attack_name)
                    if o.epsilon_255 == float(eps)
                ]
                if cells:
                    values[eps] = sum(o.visual.as_dict()[metric] for o in cells) / len(cells)
            row = "  " + f"{attack_name:7s}" + "".join(
                f"  {values.get(eps, float('nan')):<10.4f}" for eps in epsilons_255
            )
            lines.append(row)
    return "\n".join(lines)
