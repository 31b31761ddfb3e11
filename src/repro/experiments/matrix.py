"""Scenario matrix: attacks × defenses × recommenders as first-class DAG cells.

The static experiment DAG (:mod:`repro.experiments.stages`) ends in a
single ``attack_grid`` node crossing scenarios, ε rungs and the two
ladder attacks.  The matrix generalises that terminal node into a
*parameterised grid of cells*::

    attacks      FGSM | PGD | CW | MIM | NES | TRANSFER
    defenses     none | adv_train | distill | squeeze | detector
    recommenders VBPR | AMR | BPRMF

Every ``cell:<defense>/<attack>/<recommender>`` is its own DAG node
with a chained fingerprint — attack config + defense config + the
upstream classifier / feature hashes, all hashed through the same
:func:`~repro.experiments.stages.node_fingerprints` loop as the static
stages — so editing one defense's knob re-runs exactly that defense's
column of cells while every other artifact loads untouched.  The graph
is declared once, by :func:`matrix_nodes`, as
:class:`~repro.experiments.stages.Node` objects, the stages' own type;
fingerprints, execution order and plans all derive from that list.  The
base stages and the model nodes run as one list through the stages'
:class:`~repro.experiments.stages.NodeExecutor`.  The cells load and
save through the same executor, and the pending cells of every column
are crafted and measured in one pass of the static stage's own
attack-grid loop, :func:`~repro.experiments.runner.grid_outcomes`.

Execution semantics per axis value:

* **Defense** decides what the deployed system looks like.
  ``none`` reuses the base stage artifacts verbatim; ``adv_train`` and
  ``distill`` retrain the classifier (and therefore features and the
  visual recommenders); ``squeeze`` keeps the base classifier but pushes
  every *ingested* image through a :class:`~repro.defenses.FeatureSqueezer`
  before re-extraction; ``detector`` screens the re-extracted feature
  vectors with a :class:`~repro.defenses.ReconstructionDetector` and
  quarantines flagged items (their features and predictions stay clean).
* **Attack** decides how adversarial images are crafted.  FGSM/PGD/MIM
  ride the batched ε-ladder engine; CW/NES fall back to per-cell runs;
  ``TRANSFER`` crafts PGD images on an independently-seeded surrogate
  classifier and delivers them to the (unseen) deployed one.
* **Recommender** decides how impact is measured.  VBPR/AMR re-score
  swapped features through :meth:`TAaMRPipeline.outcomes_from_cells`;
  BPR-MF is the attack-free control — its scores cannot move, so its
  rows isolate classifier-side success from recommender-side exposure.

White-box convention: for retraining defenses the adversary attacks the
*defended* classifier (the strongest, standard evaluation); ``squeeze``
and ``detector`` act at ingest time, after crafting.

Results land in a cube of rows — the ``attack_grid`` row schema plus
``defense`` and ``flagged_items`` columns — and the stage runs'
:class:`~repro.experiments.stages.RunManifest`, recording per-cell
fingerprints and hit/built actions, behind ``python -m repro matrix``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..artifacts import MemoryArtifactStore, Store
from ..attacks import LadderCell
from ..attacks.base import AttackResult
from ..attacks.projections import epsilon_from_255
from ..core import (
    AttackOutcome,
    CatalogState,
    CohortReferences,
    TAaMRPipeline,
    category_hit_ratio,
    paper_scenarios,
)
from ..core.pipeline import cell_visuals
from ..core.scenarios import AttackScenario
from ..defenses import (
    AdversarialTrainer,
    AdversarialTrainingConfig,
    DistillationConfig,
    FeatureSqueezer,
    ReconstructionDetector,
    distill,
)
from ..features import FeatureExtractor
from ..nn import TinyResNet
from ..recommenders import BPRMF, BPRMFConfig
from ..telemetry import Stopwatch
from .config import ExperimentConfig
from .runner import Column, Craft, grid_outcomes, grid_row, pipeline_measures, row_measures
from .stages import (
    Node,
    NodeExecutor,
    RunManifest,
    StagePlan,
    StageResults,
    _catalog_features,
    _classifier,
    _fitted,
    _load_catalog_features,
    _load_classifier,
    _make_amr,
    _make_classifier,
    _make_vbpr,
    attack_stats_from_rows,
    node_closure,
    node_fingerprints,
    stage_nodes,
)

# perfbench's layer timers wrap these names on this module by attribute
# (the visual metrics and the per-cell fallback); they stay importable.
from ..metrics import batch_psnr, batch_ssim, psm_from_features  # noqa: F401
from .runner import fallback_ladder_cells  # noqa: F401

MATRIX_ATTACKS = ("FGSM", "PGD", "CW", "MIM", "NES", "TRANSFER")
MATRIX_DEFENSES = ("none", "adv_train", "distill", "squeeze", "detector")
MATRIX_RECOMMENDERS = ("VBPR", "AMR", "BPRMF")
VISUAL_RECOMMENDERS = ("VBPR", "AMR")

#: Defenses that change the deployed classifier (and therefore the
#: feature space the visual recommenders must be retrained in).
RETRAINING_DEFENSES = ("adv_train", "distill", "squeeze")

#: MatrixConfig fields each defense reads — its fingerprint surface.
DEFENSE_FIELDS: Dict[str, Tuple[str, ...]] = {
    "none": (),
    "adv_train": ("adv_epochs", "adv_epsilon_255", "adv_steps", "adv_weight"),
    "distill": ("distill_temperature", "distill_epochs"),
    "squeeze": ("squeeze_bits", "squeeze_median_kernel"),
    "detector": ("detector_components", "detector_fpr"),
}

#: MatrixConfig fields each attack reads beyond the shared ε/steps/seed
#: evaluation surface (those come from the base ExperimentConfig).
ATTACK_FIELDS: Dict[str, Tuple[str, ...]] = {
    "FGSM": (),
    "PGD": (),
    "CW": ("cw_steps", "cw_c", "cw_lr"),
    "MIM": ("mim_steps", "mim_decay"),
    "NES": ("nes_steps", "nes_samples", "nes_sigma"),
    "TRANSFER": ("transfer_seed",),
}

#: Base-config fields every cell's evaluation reads.
EVAL_FIELDS = ("epsilons_255", "pgd_steps", "cutoff", "seed", "ladder_mode")


# --------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------- #


def _validate_axis(name: str, values: Sequence[str], universe: Sequence[str]) -> None:
    if not values:
        raise ValueError(f"{name} must not be empty")
    unknown = [v for v in values if v not in universe]
    if unknown:
        raise ValueError(f"unknown {name} {unknown}; available: {list(universe)}")
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate entries in {name}: {list(values)}")


@dataclass(frozen=True)
class MatrixConfig:
    """The full scenario-matrix specification.

    ``base`` carries the shared experiment surface (dataset, classifier,
    recommender training, ε rungs, cutoff, ladder mode); the flat fields
    here parameterise individual defenses and attacks.  Each axis value
    fingerprints over *only* its own fields (see :data:`DEFENSE_FIELDS`
    / :data:`ATTACK_FIELDS`), which is what makes column-selective
    invalidation possible.
    """

    base: ExperimentConfig
    attacks: Tuple[str, ...] = ("FGSM", "PGD")
    defenses: Tuple[str, ...] = ("none",)
    recommenders: Tuple[str, ...] = ("VBPR", "AMR")

    # adversarial training
    adv_epochs: int = 4
    adv_epsilon_255: float = 8.0
    adv_steps: int = 3
    adv_weight: float = 0.5
    # defensive distillation
    distill_temperature: float = 10.0
    distill_epochs: int = 4
    # feature squeezing
    squeeze_bits: int = 4
    squeeze_median_kernel: int = 3
    # reconstruction detector
    detector_components: int = 8
    detector_fpr: float = 0.05
    # Carlini-Wagner
    cw_steps: int = 30
    cw_c: float = 1.0
    cw_lr: float = 0.05
    # momentum iterative method
    mim_steps: int = 10
    mim_decay: float = 1.0
    # NES gradient-free
    nes_steps: int = 5
    nes_samples: int = 8
    nes_sigma: float = 0.01
    # transfer surrogate
    transfer_seed: int = 101

    def __post_init__(self) -> None:
        _validate_axis("attacks", self.attacks, MATRIX_ATTACKS)
        _validate_axis("defenses", self.defenses, MATRIX_DEFENSES)
        _validate_axis("recommenders", self.recommenders, MATRIX_RECOMMENDERS)
        if self.adv_epochs <= 0 or self.distill_epochs <= 0:
            raise ValueError("defense training epochs must be positive")
        if not 0.0 < self.detector_fpr < 1.0:
            raise ValueError("detector_fpr must be in (0, 1)")

    def field_fingerprint(self, fields: Tuple[str, ...]) -> Dict[str, Any]:
        """The named matrix fields as a canonical (JSON-safe) mapping."""
        known = {item.name for item in dataclass_fields(self)} - {"base"}
        unknown = [name for name in fields if name not in known]
        if unknown:
            raise ValueError(f"unknown matrix config fields {unknown}")
        # Frozen, and every value is a scalar or a tuple: no copy needed.
        return {name: getattr(self, name) for name in fields}

    def attack_options(self, attack_name: str) -> Optional[Dict[str, float]]:
        """Per-attack knobs in :func:`build_cell_attack` option form."""
        if attack_name == "CW":
            return {
                "num_steps": self.cw_steps,
                "c": self.cw_c,
                "learning_rate": self.cw_lr,
            }
        if attack_name == "MIM":
            return {"num_steps": self.mim_steps, "decay": self.mim_decay}
        if attack_name == "NES":
            return {
                "num_steps": self.nes_steps,
                "samples_per_step": self.nes_samples,
                "sigma": self.nes_sigma,
            }
        return None


# --------------------------------------------------------------------- #
# The node graph, declared once
# --------------------------------------------------------------------- #


def cell_name(defense: str, attack: str, recommender: str) -> str:
    return f"cell:{defense}/{attack}/{recommender}"


def recommender_node(defense: str, recommender: str) -> str:
    """The node a cell's recommender dependency points at.

    BPR-MF is feature-free, so one shared model serves every defense;
    identity-ingest defenses (none / detector) keep the base feature
    space and reuse the base ``vbpr`` / ``amr`` stage artifacts;
    retraining defenses get their own per-defense recommender nodes.
    """
    if recommender == "BPRMF":
        return "recommender:shared/BPRMF"
    if defense in RETRAINING_DEFENSES:
        return f"recommender:{defense}/{recommender}"
    return recommender.lower()  # base stage name: "vbpr" / "amr"


def matrix_nodes(config: MatrixConfig) -> List[Node]:
    """The configured matrix's node graph in execution order, cells last.

    Model nodes come first: the TRANSFER surrogate, the shared BPR-MF
    control, then each defense followed by the recommenders retrained
    in its feature space.  Every defense's column of cells follows.
    The surrogate and the retrained recommenders fingerprint over the
    config fields their stage counterparts declare (the surrogate
    swaps ``seed`` for ``transfer_seed``).
    """
    experiment = config.base
    stages = {node.name: node for node in stage_nodes(experiment)}
    nodes: List[Node] = []
    if "TRANSFER" in config.attacks:
        seed = config.transfer_seed
        payload = {key: v for key, v in stages["classifier"].payload.items() if key != "seed"}
        nodes.append(
            Node(
                "surrogate",
                "matrix_surrogate",
                {"dataset": "dataset"},
                {**payload, "transfer_seed": seed},
                *_classifier(seed),
            )
        )
    if "BPRMF" in config.recommenders:
        bprmf = BPRMFConfig(epochs=experiment.recommender_epochs, seed=experiment.seed)
        nodes.append(
            Node(
                "recommender:shared/BPRMF",
                "matrix_bprmf",
                {"dataset": "dataset"},
                experiment.field_fingerprint(("recommender_epochs", "seed")),
                *_fitted(
                    lambda results: BPRMF(
                        results.dataset.num_users, results.dataset.num_items, bprmf
                    )
                ),
            )
        )
    for defense in config.defenses:
        name = f"defense:{defense}"
        payload = {
            "defense": defense,
            "config": config.field_fingerprint(DEFENSE_FIELDS[defense]),
        }
        deps = {"dataset": "dataset", "classifier": "classifier"}
        if defense not in RETRAINING_DEFENSES:
            # Identity-ingest defenses consume the base feature artifacts.
            nodes.append(Node(name, None, {**deps, "features": "features"}, payload))
            continue
        nodes.append(Node(name, "matrix_defense", deps, payload, *_defense(config, defense)))
        for rec in config.recommenders:
            if rec in VISUAL_RECOMMENDERS:
                make = partial(_retrained, _make_vbpr if rec == "VBPR" else _make_amr, name)
                nodes.append(
                    Node(
                        f"recommender:{defense}/{rec}",
                        "matrix_recommender",
                        {"dataset": "dataset", "defense": name},
                        stages[rec.lower()].payload,
                        *_fitted(make),
                    )
                )
    eval_payload = experiment.field_fingerprint(EVAL_FIELDS)
    for defense in config.defenses:
        for attack in config.attacks:
            payload = {
                "attack": attack,
                "attack_config": config.field_fingerprint(ATTACK_FIELDS[attack]),
                "eval": eval_payload,
            }
            for rec in config.recommenders:
                deps = {
                    "defense": f"defense:{defense}",
                    "recommender": recommender_node(defense, rec),
                }
                if attack == "TRANSFER":
                    deps["surrogate"] = "surrogate"
                name = cell_name(defense, attack, rec)
                nodes.append(Node(name, "matrix_cell", deps, payload))
    return nodes


def matrix_fingerprints(config: MatrixConfig) -> Dict[str, str]:
    """Fingerprint of every node the configured matrix touches.

    Includes the base stage fingerprints under their plain stage names
    (``dataset`` … ``clean_scores``) so matrix nodes chain off them with
    the exact same convention static stages use.  Editing one defense's
    config field changes that ``defense:*`` fingerprint and, through the
    chain, only that defense's recommender nodes and cells — the
    invalidation-matrix property the tests pin down.
    """
    return node_fingerprints(stage_nodes(config.base) + matrix_nodes(config))


def matrix_node_order(config: MatrixConfig) -> List[Tuple[str, str]]:
    """(node_name, artifact_kind) of every stored node, in execution order."""
    return [(node.name, node.kind) for node in matrix_nodes(config) if node.kind]


# --------------------------------------------------------------------- #
# Defense runtimes
# --------------------------------------------------------------------- #


@dataclass
class DefenseRuntime:
    """The deployed system under one defense: classifier-side state.

    ``classifier`` is both the crafting target (white-box) and the
    deployed re-extraction trunk, except for ``TRANSFER`` cells (crafted
    on the surrogate) and ``squeeze`` (crafted on raw pixels, deployed
    behind the squeezer).  ``attack_item_classes`` are the class
    assignments the *adversary* sees for the source cohort; for squeeze
    they come from the undefended classifier on raw images.
    """

    name: str
    classifier: TinyResNet
    extractor: FeatureExtractor
    raw_features: np.ndarray
    features: np.ndarray
    item_classes: np.ndarray
    attack_item_classes: np.ndarray
    ingest: Optional[FeatureSqueezer] = None
    detector: Optional[ReconstructionDetector] = None
    clean_scores: Dict[str, np.ndarray] = field(default_factory=dict)
    clean_top_n: Dict[str, np.ndarray] = field(default_factory=dict)


def _deliver(
    runtime: DefenseRuntime,
    attack_name: str,
    cells: List[LadderCell],
    source_items: np.ndarray,
    target_class: int,
) -> List[LadderCell]:
    """Re-measure crafted cells on the deployed (defended) system.

    TRANSFER cells were crafted on the surrogate, so the deployed
    classifier re-extracts them; ``squeeze`` filters the delivered
    images before re-extraction, and ``detector`` screens the extracted
    feature vectors.  Other cells are delivered as crafted.  The
    delivered (pre-ingest) adversarial images stay on the derived result
    so PSNR/SSIM measure what the adversary uploads; predictions and
    features reflect what the deployed system extracts after squeezing /
    detector quarantine.
    """
    transfer = attack_name == "TRANSFER"
    if not transfer and runtime.ingest is None and runtime.detector is None:
        return cells
    deployed_original = runtime.item_classes[source_items]
    derived: List[LadderCell] = []
    for cell in cells:
        adversarial = cell.result.adversarial_images
        metadata = dict(cell.result.metadata)
        if not transfer and runtime.ingest is None:
            predictions = np.asarray(cell.result.adversarial_predictions).copy()
            raw = np.array(cell.raw_features, dtype=np.float64)  # lint: allow-float64
        else:
            delivered = (
                runtime.ingest(adversarial) if runtime.ingest is not None else adversarial
            )
            predictions, raw = runtime.classifier.predict_with_features(
                delivered, batch_size=runtime.extractor.batch_size
            )
            predictions = np.asarray(predictions, dtype=np.int64)
            raw = np.asarray(raw, dtype=np.float64)  # lint: allow-float64
        if runtime.detector is not None:
            # Screening happens where serving's FeatureScreen sits: on the
            # re-extracted feature vectors, where adversarial perturbations
            # are far off the clean manifold (pixel-space residuals barely
            # move at small ε).
            flags = runtime.detector.flag(raw)
            if flags.any():
                predictions[flags] = deployed_original[flags]
                raw[flags] = runtime.raw_features[source_items[flags]]
            metadata["screen_flagged"] = int(flags.sum())
            metadata["screen_total"] = int(flags.size)
        derived.append(
            LadderCell(
                epsilon=cell.epsilon,
                result=AttackResult(
                    adversarial_images=adversarial,
                    original_predictions=deployed_original,
                    adversarial_predictions=predictions,
                    epsilon=cell.result.epsilon,
                    target_class=target_class,
                    metadata=metadata,
                ),
                raw_features=raw,
            )
        )
    return derived


def _bprmf_outcomes(
    control: Tuple[np.ndarray, np.ndarray],
    runtime: DefenseRuntime,
    dataset,
    references: CohortReferences,
    scenario: AttackScenario,
    attack_name: str,
    cells: Sequence[LadderCell],
) -> List[AttackOutcome]:
    """Measure cells against the attack-free BPR-MF control.

    ``control`` is the model's clean ``(scores, top_n)``.  BPR-MF scores
    carry no visual term, so the post-attack CHR equals the clean CHR by
    construction — the rows quantify what an adversary gains against a
    recommender that ignores images entirely, while the classifier-side
    success rate and visual metrics stay comparable with the visual
    recommenders' rows.
    """
    scores, top_n = control
    registry = dataset.registry
    source_items, target_items = (
        np.flatnonzero(runtime.item_classes == registry.by_name(name).category_id)
        for name in (scenario.source, scenario.target)
    )
    chr_source = 100.0 * category_hit_ratio(top_n, source_items)
    chr_target = 100.0 * category_hit_ratio(top_n, target_items)
    visuals = cell_visuals(
        cells, references, source_items, runtime.raw_features[source_items]
    )
    return [
        AttackOutcome(
            scenario=scenario,
            attack_name=attack_name,
            epsilon_255=cell.epsilon * 255.0,
            chr_source_before=chr_source,
            chr_target_before=chr_target,
            chr_source_after=chr_source,
            success_rate=cell.result.success_rate(),
            visual=visual,
            attacked_item_ids=source_items,
            adversarial_images=cell.result.adversarial_images,
            scores_after=scores,
            attack_metadata=dict(cell.result.metadata),
        )
        for cell, visual in zip(cells, visuals)
    ]


def _cube_row(
    defense: str, ladder_mode: str, recommender: str, outcome: AttackOutcome
) -> Dict[str, Any]:
    """One cube row: the ``attack_grid`` row plus the defense columns."""
    return {
        **grid_row(recommender, outcome, ladder_mode),
        "defense": defense,
        "flagged_items": int(outcome.attack_metadata.get("screen_flagged", 0)),
    }


# --------------------------------------------------------------------- #
# Model nodes: build / unpack
# --------------------------------------------------------------------- #


def _retrained(make, defense_node: str, results: StageResults):
    """VBPR or AMR (``make``) over one retraining defense's features."""
    return make(results.config, results.dataset, results.values[defense_node].features)


def _defense(config: MatrixConfig, defense: str) -> Tuple[Callable, Callable]:
    """One retraining defense's deployed catalog."""
    squeezer = (
        FeatureSqueezer(
            bits=config.squeeze_bits, median_kernel=config.squeeze_median_kernel
        )
        if defense == "squeeze"
        else None
    )
    seed = config.base.seed + 1 if defense == "distill" else config.base.seed

    def build(results: StageResults):
        dataset = results.dataset
        if defense == "adv_train":
            classifier = _make_classifier(config.base, dataset, seed)
            classifier.load_state_dict(results.classifier.state_dict())
            AdversarialTrainer(
                classifier,
                AdversarialTrainingConfig(
                    epochs=config.adv_epochs,
                    batch_size=config.base.classifier_batch_size,
                    learning_rate=config.base.classifier_lr,
                    epsilon=epsilon_from_255(config.adv_epsilon_255),
                    attack_steps=config.adv_steps,
                    adversarial_weight=config.adv_weight,
                    seed=config.base.seed,
                ),
            ).fit(dataset.images, dataset.item_categories)
        elif defense == "distill":
            classifier, _ = distill(
                results.classifier,
                dataset.images,
                DistillationConfig(
                    temperature=config.distill_temperature,
                    epochs=config.distill_epochs,
                    batch_size=config.base.classifier_batch_size,
                    learning_rate=config.base.classifier_lr,
                    seed=config.base.seed,
                ),
                student_seed=seed,
            )
        else:
            # squeeze: the base classifier deployed behind the
            # squeezer; the clean catalog itself is ingested through it.
            classifier = results.classifier
        images = dataset.images if squeezer is None else squeezer(dataset.images)
        extractor, raw, classes = _catalog_features(classifier, images)
        arrays: Dict[str, np.ndarray] = {"raw_features": raw, "item_classes": classes}
        arrays.update(
            {f"norm__{k}": v for k, v in extractor.normalization_state().items()}
        )
        if squeezer is None:
            arrays.update({f"clf__{k}": v for k, v in classifier.state_dict().items()})
        return arrays, {"defense": defense}

    def unpack(results: StageResults, arrays, meta) -> DefenseRuntime:
        if squeezer is None:
            state = {
                k[len("clf__"):]: v for k, v in arrays.items() if k.startswith("clf__")
            }
            classifier = _load_classifier(config.base, results.dataset, seed, state)
        else:
            classifier = results.classifier
        extractor, raw, features = _load_catalog_features(
            classifier,
            {"mean": arrays["norm__mean"], "scale": arrays["norm__scale"]},
            arrays["raw_features"],
        )
        item_classes = np.asarray(arrays["item_classes"], dtype=np.int64)
        return DefenseRuntime(
            name=defense,
            classifier=classifier,
            extractor=extractor,
            raw_features=raw,
            features=features,
            item_classes=item_classes,
            attack_item_classes=(
                item_classes if squeezer is None else results.item_classes
            ),
            ingest=squeezer,
        )

    return build, unpack


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #


@dataclass
class MatrixResults:
    """The cube plus the in-memory state a caller may want to reuse."""

    config: MatrixConfig
    rows: List[Dict[str, Any]]
    base: StageResults
    bprmf: Optional[BPRMF] = None

    def select(
        self,
        defense: Optional[str] = None,
        attack: Optional[str] = None,
        recommender: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        selected = self.rows
        if defense is not None:
            selected = [r for r in selected if r["defense"] == defense]
        if attack is not None:
            selected = [r for r in selected if r["attack"] == attack]
        if recommender is not None:
            selected = [r for r in selected if r["recommender"] == recommender]
        return selected


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #


class MatrixRunner:
    """Execute the configured scenario matrix against an artifact store.

    The base stages the matrix needs and its model nodes run as one node
    list through the stage DAG's :class:`~repro.experiments.stages.NodeExecutor`:
    each is loaded by its chained fingerprint, verified against the
    content hashes of the upstream nodes of *this* run, and rebuilt on
    any mismatch.  The cell columns load and save each cell through the
    same executor, so stages and matrix nodes share one store and one
    manifest bookkeeping.  Without a ``store`` the runner keeps its
    artifacts in a fresh :class:`~repro.artifacts.MemoryArtifactStore`.
    """

    def __init__(
        self,
        config: MatrixConfig,
        store: Optional[Store] = None,
        verbose: bool = False,
    ) -> None:
        self.config = config
        self.store = store or MemoryArtifactStore()
        self.verbose = verbose
        stages, matrix = stage_nodes(config.base), matrix_nodes(config)
        self.nodes = node_closure(stages, self._base_stages_needed()) + matrix
        self.fingerprints = node_fingerprints(stages + matrix)

    # -- shared stage selection ---------------------------------------- #
    def _base_stages_needed(self) -> List[str]:
        """Identity-defense cells read the base ``vbpr`` / ``amr`` stages.

        The ``clean_scores`` stage scores both, so it runs only when
        both are on the axis; a cube with one visual recommender loads
        that stage alone and its pipeline scores the clean catalog.
        """
        identity = any(d not in RETRAINING_DEFENSES for d in self.config.defenses)
        visual = [r.lower() for r in VISUAL_RECOMMENDERS if r in self.config.recommenders]
        if not (identity and visual):
            return ["features"]
        return ["clean_scores"] if len(visual) == len(VISUAL_RECOMMENDERS) else visual

    # -- planning ------------------------------------------------------- #
    def plan(self) -> List[StagePlan]:
        """What :meth:`run` would do, without executing anything."""
        return StagePlan.of(self.store, self.nodes, self.fingerprints)

    # -- runtime assembly ------------------------------------------------ #
    def _base_runtime(self, defense: str, base: StageResults) -> DefenseRuntime:
        runtime = DefenseRuntime(
            name=defense,
            classifier=base.classifier,
            extractor=base.extractor,
            raw_features=base.raw_features,
            features=base.features,
            item_classes=base.item_classes,
            attack_item_classes=base.item_classes,
            clean_scores=dict(base.clean_scores),
            clean_top_n=dict(base.clean_top_n),
        )
        if defense == "detector":
            detector = ReconstructionDetector(self.config.detector_components)
            detector.fit(base.raw_features)
            detector.calibrate(base.raw_features, self.config.detector_fpr)
            runtime.detector = detector
        return runtime

    def _column(
        self,
        runtime: DefenseRuntime,
        pairs: Sequence[Tuple[str, str]],
        base: StageResults,
        control: Optional[Tuple[np.ndarray, np.ndarray]],
        references: CohortReferences,
    ) -> Column:
        """One defense's grid column: its ``(attack, recommender)`` ``pairs``.

        The matrix's own parts ride into the attack-grid loop: TRANSFER
        crafts PGD on the surrogate, :func:`_deliver` re-measures cells
        through squeeze / detector, and BPR-MF measures through its
        control.  White-box attacks craft on the deployed classifier
        from the classes the adversary sees.  Every measure reduces its
        outcomes to cube rows inside the job.
        """
        config, models = self.config, base.values
        attacks = [a for a in config.attacks if any(a == attack for attack, _ in pairs)]
        recs = [r for r in config.recommenders if any(r == rec for _, rec in pairs)]
        crafts = {
            attack: Craft(models["surrogate"], "PGD")
            if attack == "TRANSFER"
            else Craft(
                runtime.classifier,
                attack,
                runtime.attack_item_classes,
                config.attack_options(attack),
            )
            for attack in attacks
        }
        measures = pipeline_measures(
            {
                rec: TAaMRPipeline(
                    base.dataset,
                    runtime.extractor,
                    models[recommender_node(runtime.name, rec)],
                    cutoff=config.base.cutoff,
                    precomputed=CatalogState(
                        item_classes=runtime.item_classes,
                        raw_features=runtime.raw_features,
                        features=runtime.features,
                        clean_scores=runtime.clean_scores.get(rec),
                        clean_top_n=runtime.clean_top_n.get(rec),
                    ),
                )
                for rec in recs
                if rec in VISUAL_RECOMMENDERS
            },
            references,
        )
        if "BPRMF" in recs:
            measures["BPRMF"] = partial(
                _bprmf_outcomes, control, runtime, base.dataset, references
            )
        return Column(
            crafts,
            runtime.item_classes,
            row_measures(
                measures, partial(_cube_row, runtime.name, config.base.ladder_mode)
            ),
            deliver=partial(_deliver, runtime),
            pairs=pairs,
            name=runtime.name,
        )

    # -- execution ------------------------------------------------------- #
    def run(self, force: Sequence[str] = ()) -> Tuple[MatrixResults, RunManifest]:
        """Run every configured cell, loading whatever is still valid.

        ``force`` names nodes of :meth:`plan` (``classifier``,
        ``defense:squeeze``, ``cell:none/FGSM/VBPR``, ...) that must
        rebuild even when a valid artifact exists.  The base stages and
        the model nodes (surrogate, BPR-MF, retrained defenses and their
        recommenders) resolve first, in :attr:`nodes` order; then the
        cells: every still-valid cell loads, and the others of every
        defense column are crafted and measured in one
        :func:`~repro.experiments.runner.grid_outcomes` pass whose jobs
        send back only cube rows.  Each built cell's ``seconds`` is the
        pass's time over the cells it built.
        """
        config = self.config
        executor = NodeExecutor(
            self.store, self.fingerprints, self.nodes, force, "matrix nodes", self.verbose
        )
        base = StageResults(config=config.base)
        executor.run([node for node in self.nodes if node.build], base)

        bprmf: Optional[BPRMF] = base.values.get("recommender:shared/BPRMF")
        control = None
        if bprmf is not None:
            scores = bprmf.score_all()
            top_n = bprmf.top_n(
                min(config.base.cutoff, base.dataset.num_items),
                feedback=base.dataset.feedback,
                scores=scores,
            )
            control = (scores, top_n)

        by_name = {node.name: node for node in self.nodes}
        rows_by_cell: Dict[str, List[Dict[str, Any]]] = {}
        skipped_by_defense: Dict[str, List[str]] = {}
        pending: Dict[str, Dict[Tuple[str, str], Node]] = {}
        for defense in config.defenses:
            if defense not in RETRAINING_DEFENSES:
                # The deployed state of identity-ingest defenses *is* the
                # base features artifact; chain their content identity
                # through it.
                executor.hashes[f"defense:{defense}"] = executor.hashes["features"]

            # Load every still-valid cell first; only the misses pay for
            # crafting and measurement.
            for attack in config.attacks:
                for rec in config.recommenders:
                    node = by_name[cell_name(defense, attack, rec)]
                    loaded = executor.load_node(node)
                    if loaded is None:
                        pending.setdefault(defense, {})[(attack, rec)] = node
                        continue
                    rows_by_cell[node.name] = list(loaded.meta["rows"])
                    skipped = list(loaded.meta.get("skipped_scenarios", []))
                    if skipped:
                        skipped_by_defense.setdefault(defense, skipped)

        if pending:
            # Every pending cell of every column in one forked pass.
            timer = Stopwatch()
            references = CohortReferences(base.dataset.images)
            columns = [
                self._column(
                    base.values[f"defense:{defense}"]
                    if defense in RETRAINING_DEFENSES
                    else self._base_runtime(defense, base),
                    list(cells),
                    base,
                    control,
                    references,
                )
                for defense, cells in pending.items()
            ]
            measured = grid_outcomes(
                columns,
                base.dataset,
                paper_scenarios(base.dataset.name, base.dataset.registry),
                config.base.epsilons_255,
                config.base.pgd_steps,
                config.base.seed,
                config.base.ladder_mode,
                skip_empty=True,
            )
            share = timer.elapsed() / sum(len(cells) for cells in pending.values())
            for (defense, cells), (rows, skipped_scenarios) in zip(
                pending.items(), measured
            ):
                skipped = [f"{s.source}->{s.target}" for s in skipped_scenarios]
                if skipped:
                    skipped_by_defense[defense] = skipped
                for pair, node in cells.items():
                    meta = {"rows": rows[pair], "skipped_scenarios": skipped}
                    executor.save_node(node, {}, meta, share)
                    rows_by_cell[node.name] = rows[pair]

        all_rows = [
            row
            for node in self.nodes
            if node.kind == "matrix_cell"
            for row in rows_by_cell[node.name]
        ]
        manifest = RunManifest(
            config_key=config.base.cache_key(),
            config=asdict(config),
            store_root=self.store.root,
            stages=executor.outcomes,
            attack_stats=attack_stats_from_rows(all_rows),
            skipped_scenarios=skipped_by_defense,
        )
        return (
            MatrixResults(config=config, rows=all_rows, base=base, bprmf=bprmf),
            manifest,
        )


# --------------------------------------------------------------------- #
# Cube views
# --------------------------------------------------------------------- #


def format_cube(rows: Sequence[Dict[str, Any]]) -> str:
    """Human-readable cube summary, one line per (defense, attack,
    recommender, ε) averaged over scenarios."""
    if not rows:
        return "scenario matrix: no rows"
    groups: "Dict[Tuple[str, str, str, float], List[Dict[str, Any]]]" = {}
    for row in rows:
        key = (
            str(row["defense"]),
            str(row["attack"]),
            str(row["recommender"]),
            float(row["epsilon_255"]),
        )
        groups.setdefault(key, []).append(row)
    lines = [
        f"{'defense':10s} {'attack':9s} {'rec':6s} {'eps':>5s} "
        f"{'CHR_before':>10s} {'CHR_after':>10s} {'success':>8s} {'PSNR':>7s} {'flagged':>8s}"
    ]
    for defense in sorted({k[0] for k in groups}, key=MATRIX_DEFENSES.index):
        for attack in sorted({k[1] for k in groups if k[0] == defense}, key=MATRIX_ATTACKS.index):
            for rec in sorted(
                {k[2] for k in groups if k[:2] == (defense, attack)},
                key=MATRIX_RECOMMENDERS.index,
            ):
                epsilons = sorted(
                    k[3] for k in groups if k[:3] == (defense, attack, rec)
                )
                for eps in epsilons:
                    selected = groups[(defense, attack, rec, eps)]
                    before = float(np.mean([r["chr_source_before"] for r in selected]))
                    after = float(np.mean([r["chr_source_after"] for r in selected]))
                    success = float(np.mean([r["success_rate"] for r in selected]))
                    psnr = float(np.mean([r["psnr"] for r in selected]))
                    flagged = int(sum(r.get("flagged_items", 0) for r in selected))
                    lines.append(
                        f"{defense:10s} {attack:9s} {rec:6s} {eps:5.0f} "
                        f"{before:10.3f} {after:10.3f} {success:8.3f} {psnr:7.2f} {flagged:8d}"
                    )
    return "\n".join(lines)
