"""Experiment runners: the attack grid behind Tables II, III and IV.

One grid run per recommender covers every (scenario × attack × ε) cell;
Table II reads the CHR columns, Table III the success rates, Table IV
the visual metrics — exactly how the paper derives all three tables
from one set of attack executions.  Every grid, and every defense
column of a scenario cube, runs through :func:`grid_outcomes`: one job
per (column, scenario, attack) crafts, delivers and measures, and all
jobs of one call run in one forked pass.  :func:`grid_row` turns each
outcome into the one row schema every run stores, and the table
formatters render those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
    CohortReferences,
    FeatureScratch,
    TAaMRPipeline,
    invoke_attack,
    paper_scenarios,
)
from ..telemetry import active_metrics, span
from .parallel import forked_map

if TYPE_CHECKING:
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
    ladder_mode: str = "exact"

    def rows(self) -> List[Dict[str, Any]]:
        """The grid's outcomes as :func:`grid_row` rows, in outcome order."""
        return [grid_row(self.recommender_name, o, self.ladder_mode) for o in self.outcomes]

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


def grid_row(
    recommender_name: str, outcome: AttackOutcome, ladder_mode: str
) -> Dict[str, Any]:
    """One attack-grid row: the JSON-safe record of one outcome.

    The only place an :class:`AttackOutcome` becomes a row: the
    ``attack_grid`` stage stores these, the scenario cube adds its
    defense columns on top, and the table formatters read them.
    """
    metadata = outcome.attack_metadata
    return {
        "recommender": recommender_name,
        "source": outcome.scenario.source,
        "target": outcome.scenario.target,
        "semantically_similar": outcome.scenario.semantically_similar,
        "attack": outcome.attack_name,
        "epsilon_255": float(outcome.epsilon_255),
        "chr_source_before": float(outcome.chr_source_before),
        "chr_target_before": float(outcome.chr_target_before),
        "chr_source_after": float(outcome.chr_source_after),
        "success_rate": float(outcome.success_rate),
        "psnr": float(outcome.visual.psnr),
        "ssim": float(outcome.visual.ssim),
        "psm": float(outcome.visual.psm),
        "num_attacked_items": int(outcome.attacked_item_ids.size),
        "ladder_mode": ladder_mode,
        "attack_iterations": int(metadata.get("iterations", 0)),
        "attack_forwards": float(metadata.get("forwards", 0.0)),
        "attack_backwards": float(metadata.get("backwards", 0.0)),
        "early_exited": int(metadata.get("early_exited", 0)),
    }


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
#: ``measure(scenario, attack_name, cells)`` → one result per cell, an
#: :class:`AttackOutcome` or a smaller record made from one (:func:`row_measures`).
Measure = Callable[[AttackScenario, str, Sequence[LadderCell]], List[Any]]


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


@dataclass(frozen=True)
class Column:
    """One attack grid of a :func:`grid_outcomes` pass.

    ``crafts`` maps each attack to what it crafts on; ``item_classes``
    assign each scenario its cohort (the items of its source category).
    ``measures`` maps each recommender to its :data:`Measure`, run for
    the ``pairs`` of ``(attack, recommender)`` asked for (default: every
    pair).  ``deliver(attack_name, cells, source_items, target_class)``
    may re-measure the crafted cells on the deployed system before any
    recommender sees them.  ``name`` (a matrix column's defense) names
    the column in a failing job's error.
    """

    crafts: Mapping[str, Craft]
    item_classes: np.ndarray
    measures: Mapping[str, Measure]
    deliver: Optional[Callable[..., List[LadderCell]]] = None
    pairs: Optional[Sequence[Tuple[str, str]]] = None
    name: str = ""


#: One column's results: ``(attack, recommender)`` → one result per cell
#: in scenario → ε order, and the scenarios skipped for an empty cohort.
ColumnOutcomes = Tuple[Dict[Tuple[str, str], List[Any]], List[AttackScenario]]


def grid_outcomes(
    columns: Sequence[Column],
    dataset,
    scenarios: Sequence[AttackScenario],
    epsilons_255: Sequence[float],
    pgd_steps: int,
    seed: int,
    mode: str,
    skip_empty: bool = False,
) -> List[ColumnOutcomes]:
    """Craft every (column, scenario, attack) once and measure it per recommender.

    The one attack-grid loop: the ``attack_grid`` stage,
    :func:`run_attack_grids` and the scenario matrix (one
    :class:`Column` per defense) run through it.  Attacks of
    ``LADDER_ATTACKS`` run one :class:`EpsilonLadder` per (scenario,
    attack); CW and NES degrade per attack to one per-cell run per ε
    (:func:`fallback_ladder_cells`).

    One job per (column, scenario, attack) crafts its cells, delivers
    them and runs every asked-for measure on them, so a job returns its
    measured results, not its cells.  All jobs of all columns run in
    one pass over every CPU this process may use
    (:func:`~repro.experiments.parallel.forked_map`), serially under
    any active telemetry collector; the visual metrics run once per job
    (memoised on its cells), whichever recommender measures first.
    Each job is a pure function of its inputs, so the results are
    bitwise identical however the jobs were spread.

    Returns, per column, its results per pair in scenario → ε order and
    the scenarios it skipped for an empty cohort; without
    ``skip_empty`` an empty cohort raises ``ValueError`` instead.
    """
    epsilons = tuple(epsilon_from_255(eps) for eps in epsilons_255)
    registry = dataset.registry
    outcomes: List[Dict[Tuple[str, str], List[Any]]] = [
        {
            pair: []
            for pair in (
                column.pairs
                if column.pairs is not None
                else [(a, name) for a in column.crafts for name in column.measures]
            )
        }
        for column in columns
    ]
    skipped: List[List[AttackScenario]] = [[] for _ in columns]
    jobs: List[Tuple[int, AttackScenario, str, np.ndarray, int]] = []
    for index, column in enumerate(columns):
        for scenario in scenarios:
            target_class = registry.by_name(scenario.target).category_id
            source_items = np.flatnonzero(
                column.item_classes == registry.by_name(scenario.source).category_id
            )
            if source_items.size == 0:
                if not skip_empty:
                    raise ValueError(
                        f"classifier assigns no items to source category '{scenario.source}'"
                    )
                skipped[index].append(scenario)
                continue
            jobs += [
                (index, scenario, attack, source_items, target_class)
                for attack in column.crafts
            ]

    def job(index: int) -> Dict[str, List[Any]]:
        column_index, scenario, attack_name, source_items, target_class = jobs[index]
        column = columns[column_index]
        craft = column.crafts[attack_name]
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
        if column.deliver is not None:
            cells = column.deliver(attack_name, cells, source_items, target_class)
        return {
            name: measure(scenario, attack_name, cells)
            for name, measure in column.measures.items()
            if (attack_name, name) in outcomes[column_index]
        }

    def describe(index: int) -> str:
        column_index, scenario, attack_name = jobs[index][:3]
        name = columns[column_index].name
        where = f" under {name}" if name else ""
        return (
            f"crafting and measuring {attack_name} on "
            f"{scenario.source} -> {scenario.target}{where}"
        )

    for (column_index, _, attack_name, _, _), measured in zip(
        jobs, forked_map(job, len(jobs), describe)
    ):
        for name, results in measured.items():
            outcomes[column_index][attack_name, name] += results
    return list(zip(outcomes, skipped))


def pipeline_measures(
    pipelines: Mapping[str, TAaMRPipeline],
    references: Optional[CohortReferences] = None,
) -> Dict[str, Measure]:
    """Each pipeline's ``outcomes_from_cells``, sharing one feature scratch.

    All pipelines must share one catalog classification (identical
    ``item_classes``/``clean_features``), which holds for the pipelines
    of one stage run or one matrix defense.  ``references`` shares the
    cohorts' SSIM clean sides beyond these pipelines (the matrix passes
    one for all its columns); by default the pipelines share their own.
    """
    if not pipelines:
        return {}
    first = next(iter(pipelines.values()))
    scratch = FeatureScratch(first.clean_features)
    if references is None:
        references = CohortReferences(first.dataset.images)
    return {
        name: partial(pipeline.outcomes_from_cells, scratch=scratch, references=references)
        for name, pipeline in pipelines.items()
    }


def row_measures(
    measures: Mapping[str, Measure], row: Callable[[str, AttackOutcome], Any]
) -> Dict[str, Measure]:
    """``measures`` that turn each outcome into ``row(recommender, outcome)``.

    The reduction runs inside the job, so a forked worker sends back
    only the rows, not each outcome's scores and image stacks.
    """

    def rows(name: str, measure: Measure, scenario, attack_name, cells) -> List[Any]:
        return [row(name, outcome) for outcome in measure(scenario, attack_name, cells)]

    return {name: partial(rows, name, measure) for name, measure in measures.items()}


def grid_order(
    outcomes: Mapping[Tuple[str, str], List[Any]],
    attack_names: Sequence[str],
    recommender_name: str,
) -> List[Any]:
    """One recommender's results in the grid's scenario → ε → attack order."""
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
    column = Column(
        {name: Craft(context.classifier, name, context.item_classes) for name in attacks},
        context.item_classes,
        pipeline_measures(pipelines),
    )
    [(outcomes, _)] = grid_outcomes(
        [column],
        context.dataset,
        resolved_scenarios,
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
            ladder_mode=config.ladder_mode,
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


#: A row of :func:`grid_row` (or a cube row, which extends it).
Row = Dict[str, Any]


def _scenario_groups(rows: Sequence[Row]) -> Dict[Tuple[str, str, str], List[Row]]:
    """Rows per (recommender, source, target), in first-seen order."""
    groups: Dict[Tuple[str, str, str], List[Row]] = {}
    for row in rows:
        groups.setdefault((row["recommender"], row["source"], row["target"]), []).append(row)
    return groups


def format_table2(rows: Sequence[Row], epsilons_255: Sequence[float]) -> str:
    """Table II analog: CHR@N before/after per model × attack × scenario × ε."""
    lines = ["Table II — CHR@N (%) after targeted attacks (clean value in header)"]
    for (name, source, target), selected in _scenario_groups(rows).items():
        head = selected[0]
        lines.append(
            f"\n{name}: {source}"
            f"({head['chr_source_before']:.3f}) → {target}"
            f"({head['chr_target_before']:.3f})  "
            f"[{'similar' if head['semantically_similar'] else 'dissimilar'}]"
        )
        header = "  attack " + "".join(f"  ε={eps:<6.0f}" for eps in epsilons_255)
        lines.append(header)
        for attack_name in ("FGSM", "PGD"):
            cells = {
                r["epsilon_255"]: r["chr_source_after"]
                for r in selected
                if r["attack"] == attack_name
            }
            row = "  " + f"{attack_name:7s}" + "".join(
                f"  {cells.get(float(eps), float('nan')):<8.3f}" for eps in epsilons_255
            )
            lines.append(row)
    return "\n".join(lines)


def format_table3(rows: Sequence[Row], epsilons_255: Sequence[float]) -> str:
    """Table III analog: targeted attack success probability."""
    lines = ["Table III — targeted misclassification success probability"]
    seen = set()
    for (_, source, target), selected in _scenario_groups(rows).items():
        if (source, target) in seen:
            continue  # success rate is a classifier property, not per-model
        seen.add((source, target))
        lines.append(f"\n{source} → {target}")
        lines.append("  attack " + "".join(f"  ε={eps:<7.0f}" for eps in epsilons_255))
        for attack_name in ("FGSM", "PGD"):
            cells = {
                r["epsilon_255"]: r["success_rate"]
                for r in selected
                if r["attack"] == attack_name
            }
            row = "  " + f"{attack_name:7s}" + "".join(
                f"  {100 * cells.get(float(eps), float('nan')):<8.2f}%"
                for eps in epsilons_255
            )
            lines.append(row)
    return "\n".join(lines)


def format_table4(rows: Sequence[Row], epsilons_255: Sequence[float]) -> str:
    """Table IV analog: average PSNR / SSIM / PSM per attack × ε.

    Averages the first recommender's rows: the visual metrics measure
    the crafted images, so every recommender's grid holds the same ones.
    """
    name = rows[0]["recommender"]
    grid = [row for row in rows if row["recommender"] == name]
    lines = [f"Table IV — average visual quality ({name} grid)"]
    for metric in ("PSNR", "SSIM", "PSM"):
        lines.append(f"\n{metric}")
        lines.append("  attack " + "".join(f"  ε={eps:<8.0f}" for eps in epsilons_255))
        for attack_name in ("FGSM", "PGD"):
            values = {}
            for eps in epsilons_255:
                cells = [
                    r[metric.lower()]
                    for r in grid
                    if r["attack"] == attack_name and r["epsilon_255"] == float(eps)
                ]
                if cells:
                    values[eps] = sum(cells) / len(cells)
            row = "  " + f"{attack_name:7s}" + "".join(
                f"  {values.get(eps, float('nan')):<10.4f}" for eps in epsilons_255
            )
            lines.append(row)
    return "\n".join(lines)
