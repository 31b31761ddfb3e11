"""Experiment runners: the attack grid behind Tables II, III and IV.

One grid run per recommender covers every (scenario × attack × ε) cell;
Table II reads the CHR columns, Table III the success rates, Table IV
the visual metrics — exactly how the paper derives all three tables
from one set of attack executions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

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
from .context import ExperimentContext

GRID_ATTACK_NAMES = ("FGSM", "PGD")

# Attacks the grid can run beyond the ladder-batched pair.  CW/MIM/NES
# have no batched ε-ladder path; the grid falls back to one per-cell
# run per (scenario, attack, ε) for them (see fallback_ladder_cells).
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
    """Per-cell ε sweep for attacks without a batched ladder path.

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


def ladder_grid_outcomes(
    classifier,
    pipelines: "Mapping[str, TAaMRPipeline]",
    scenarios: Sequence[AttackScenario],
    epsilons_255: Sequence[float],
    pgd_steps: int,
    seed: int,
    mode: str,
    batch_size: int = 32,
    attack_names: Sequence[str] = GRID_ATTACK_NAMES,
    attack_options: Optional[Mapping[str, Dict[str, float]]] = None,
) -> Dict[str, List[AttackOutcome]]:
    """Run the ε-ladder grid once and measure it per recommender.

    The attack, feature re-extraction and visual metrics of a cell
    depend only on the classifier, so one :class:`EpsilonLadder` run per
    (scenario, attack) serves every pipeline in ``pipelines`` — only
    re-scoring and CHR bookkeeping execute per recommender.  Outcomes
    come back per recommender in the canonical per-cell order
    (scenario → ε → attack), so tables and stored grid rows are laid out
    exactly as the legacy loop produced them.

    ``attack_names`` may include attacks without a batched ladder path
    (CW/MIM/NES): those degrade gracefully to one per-cell run per
    (scenario, attack) via :func:`fallback_ladder_cells` — per attack,
    never for the whole grid — and bump the ``attack_ladder.fallback``
    counter.  ``attack_options`` carries per-attack knobs for the
    fallback (see :func:`build_cell_attack`).

    All pipelines must share one catalog classification (identical
    ``item_classes``/``clean_features``), which holds for pipelines of
    one experiment context or stage run.
    """
    epsilons = tuple(epsilon_from_255(eps) for eps in epsilons_255)
    first = next(iter(pipelines.values()))
    scratch = FeatureScratch(first.clean_features)
    outcomes: Dict[str, List[AttackOutcome]] = {name: [] for name in pipelines}
    for scenario in scenarios:
        target_class = first.dataset.registry.by_name(scenario.target).category_id
        source_items = first.category_items(scenario.source)
        if source_items.size == 0:
            raise ValueError(
                f"classifier assigns no items to source category '{scenario.source}'"
            )
        images = first.dataset.images[source_items]
        original = first.item_classes[source_items]
        cells_by_attack = {}
        for attack_name in attack_names:
            if attack_name in LADDER_ATTACKS:
                ladder = EpsilonLadder(
                    classifier,
                    attack=attack_name,
                    epsilons=epsilons,
                    mode=mode,
                    num_steps=pgd_steps,
                    seed=seed,
                    batch_size=batch_size,
                )
                with span(
                    "attack_grid.ladder",
                    source=scenario.source,
                    target=scenario.target,
                    attack=attack_name,
                    mode=mode,
                    items=int(source_items.size),
                ):
                    cells_by_attack[attack_name] = ladder.run(
                        images, target_class, original_predictions=original
                    )
            else:
                cells_by_attack[attack_name] = fallback_ladder_cells(
                    classifier,
                    attack_name,
                    images,
                    target_class,
                    original,
                    epsilons_255,
                    pgd_steps=pgd_steps,
                    seed=seed,
                    options=(attack_options or {}).get(attack_name),
                )
        for name, pipeline in pipelines.items():
            measured = {
                attack_name: pipeline.outcomes_from_cells(
                    scenario, attack_name, cells_by_attack[attack_name], scratch=scratch
                )
                for attack_name in attack_names
            }
            for index in range(len(epsilons)):
                for attack_name in attack_names:
                    outcomes[name].append(measured[attack_name][index])
    return outcomes


def _build_pipeline(context: ExperimentContext, recommender_name: str) -> TAaMRPipeline:
    return TAaMRPipeline(
        context.dataset,
        context.extractor,
        context.recommender(recommender_name),
        cutoff=context.config.cutoff,
        # Contexts built through the stage DAG carry the catalog
        # classifier pass; reusing it skips one full forward here.
        precomputed=context.catalog_state(),
    )


def run_attack_grids(
    context: ExperimentContext,
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
    FGSM/PGD (see :data:`CELL_ATTACK_NAMES`); attacks without a ladder
    path fall back per attack to per-cell runs.
    """
    config = context.config
    names = [name.upper() for name in recommender_names]
    pipelines = OrderedDict((name, _build_pipeline(context, name)) for name in names)
    resolved_scenarios = (
        list(scenarios)
        if scenarios is not None
        else paper_scenarios(context.dataset.name, context.dataset.registry)
    )
    outcomes = ladder_grid_outcomes(
        context.classifier,
        pipelines,
        resolved_scenarios,
        tuple(epsilons_255) if epsilons_255 is not None else config.epsilons_255,
        pgd_steps=config.pgd_steps,
        seed=config.seed,
        mode=config.ladder_mode,
        attack_names=(
            tuple(attack_names) if attack_names is not None else GRID_ATTACK_NAMES
        ),
    )
    return [
        AttackGrid(
            recommender_name=name,
            pipeline=pipelines[name],
            scenarios=resolved_scenarios,
            outcomes=outcomes[name],
        )
        for name in names
    ]


def run_attack_grid(
    context: ExperimentContext,
    recommender_name: str,
    scenarios: Optional[Sequence[AttackScenario]] = None,
    epsilons_255: Optional[Sequence[float]] = None,
    attack_names: Optional[Sequence[str]] = None,
) -> AttackGrid:
    """Attack one recommender across all scenarios, attacks and budgets."""
    return run_attack_grids(
        context, (recommender_name,), scenarios, epsilons_255, attack_names
    )[0]


def per_cell_grid(context: ExperimentContext, recommender_name: str) -> AttackGrid:
    """The per-cell oracle: one attack per (scenario, ε, FGSM/PGD) cell.

    Each cell builds its own FGSM/PGD instance and runs it through
    :meth:`TAaMRPipeline.attack_category` — the unbatched path the
    ε ladder must reproduce bit for bit in ``"exact"`` mode.  Not an
    engine mode: the ladder tests call it directly.
    """
    config = context.config
    pipeline = _build_pipeline(context, recommender_name)
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
