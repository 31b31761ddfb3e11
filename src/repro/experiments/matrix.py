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
:func:`~repro.experiments.stages.chained_fingerprint` convention as the
static stages — so editing one defense's knob re-runs exactly that
defense's column of cells while every other artifact loads untouched.

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
``defense`` and ``flagged_items`` columns — and a
:class:`MatrixManifest` recording per-cell fingerprints and
hit/built actions, behind ``python -m repro matrix``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..artifacts import ArtifactStore, write_json
from ..attacks import LADDER_ATTACKS, LadderCell
from ..attacks.base import AttackResult
from ..attacks.projections import epsilon_from_255
from ..core import (
    AttackOutcome,
    CatalogState,
    FeatureScratch,
    TAaMRPipeline,
    VisualQuality,
    category_hit_ratio,
    paper_scenarios,
)
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
from ..metrics import (
    SSIMReference,
    batch_psnr,
    batch_ssim,
    psm_from_features,
    ssim_reference,
)
from ..nn import TinyResNet
from ..recommenders import BPRMF, BPRMFConfig
from ..telemetry import Stopwatch, span
from .config import ExperimentConfig
from .runner import build_ladder, fallback_ladder_cells
from .stages import (
    StageOutcome,
    StagePlan,
    StageResults,
    StageRunner,
    StoredNode,
    _catalog_features,
    _grid_row,
    _load_catalog_features,
    _load_classifier,
    _make_amr,
    _make_classifier,
    _make_vbpr,
    _train_classifier,
    attack_stats_from_rows,
    chained_fingerprint,
    load_node,
    save_node,
)

MATRIX_SCHEMA_VERSION = 1

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
        payload = asdict(self)
        payload.pop("base")
        unknown = [name for name in fields if name not in payload]
        if unknown:
            raise ValueError(f"unknown matrix config fields {unknown}")
        return {name: payload[name] for name in fields}

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
# The node graph and its fingerprints
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


_RECOMMENDER_CONFIG_FIELDS = {
    "VBPR": ("recommender_epochs", "seed"),
    "AMR": ("recommender_epochs", "amr_pretrain_epochs", "amr_gamma", "amr_eta", "seed"),
}

_CLASSIFIER_FIELDS = (
    "classifier_widths",
    "classifier_blocks",
    "classifier_epochs",
    "classifier_lr",
    "classifier_batch_size",
)


def matrix_fingerprints(config: MatrixConfig) -> Dict[str, str]:
    """Fingerprint of every node the configured matrix touches.

    Includes the base stage fingerprints under their plain stage names
    (``dataset`` … ``clean_scores``) so matrix nodes chain off them with
    the exact same convention static stages use.  Editing one defense's
    config field changes that ``defense:*`` fingerprint and, through the
    chain, only that defense's recommender nodes and cells — the
    invalidation-matrix property the tests pin down.
    """
    from .stages import stage_fingerprints

    fps: Dict[str, str] = dict(stage_fingerprints(config.base))

    for defense in config.defenses:
        deps = ("dataset", "classifier")
        if defense not in RETRAINING_DEFENSES:
            # Identity-ingest defenses consume the base feature artifacts.
            deps = ("dataset", "classifier", "features")
        fps[f"defense:{defense}"] = chained_fingerprint(
            f"defense:{defense}",
            MATRIX_SCHEMA_VERSION,
            {
                "defense": defense,
                "config": config.field_fingerprint(DEFENSE_FIELDS[defense]),
            },
            {dep: fps[dep] for dep in deps},
        )

    if "BPRMF" in config.recommenders:
        fps["recommender:shared/BPRMF"] = chained_fingerprint(
            "recommender:shared/BPRMF",
            MATRIX_SCHEMA_VERSION,
            config.base.field_fingerprint(("recommender_epochs", "seed")),
            {"dataset": fps["dataset"]},
        )
    for defense in config.defenses:
        if defense not in RETRAINING_DEFENSES:
            continue
        for rec in config.recommenders:
            if rec not in VISUAL_RECOMMENDERS:
                continue
            name = f"recommender:{defense}/{rec}"
            fps[name] = chained_fingerprint(
                name,
                MATRIX_SCHEMA_VERSION,
                config.base.field_fingerprint(_RECOMMENDER_CONFIG_FIELDS[rec]),
                {"dataset": fps["dataset"], "defense": fps[f"defense:{defense}"]},
            )

    if "TRANSFER" in config.attacks:
        payload = config.base.field_fingerprint(_CLASSIFIER_FIELDS)
        payload["transfer_seed"] = config.transfer_seed
        fps["surrogate"] = chained_fingerprint(
            "surrogate", MATRIX_SCHEMA_VERSION, payload, {"dataset": fps["dataset"]}
        )

    eval_payload = config.base.field_fingerprint(EVAL_FIELDS)
    for defense in config.defenses:
        for attack in config.attacks:
            for rec in config.recommenders:
                deps = {
                    "defense": fps[f"defense:{defense}"],
                    "recommender": fps[recommender_node(defense, rec)],
                }
                if attack == "TRANSFER":
                    deps["surrogate"] = fps["surrogate"]
                fps[cell_name(defense, attack, rec)] = chained_fingerprint(
                    cell_name(defense, attack, rec),
                    MATRIX_SCHEMA_VERSION,
                    {
                        "attack": attack,
                        "attack_config": config.field_fingerprint(ATTACK_FIELDS[attack]),
                        "eval": eval_payload,
                    },
                    deps,
                )
    return fps


def matrix_node_order(config: MatrixConfig) -> List[Tuple[str, str]]:
    """(node_name, artifact_kind) in execution order, cells last."""
    nodes: List[Tuple[str, str]] = []
    if "TRANSFER" in config.attacks:
        nodes.append(("surrogate", "matrix_surrogate"))
    if "BPRMF" in config.recommenders:
        nodes.append(("recommender:shared/BPRMF", "matrix_bprmf"))
    for defense in config.defenses:
        if defense in RETRAINING_DEFENSES:
            nodes.append((f"defense:{defense}", "matrix_defense"))
            for rec in config.recommenders:
                if rec in VISUAL_RECOMMENDERS:
                    nodes.append((f"recommender:{defense}/{rec}", "matrix_recommender"))
    for defense in config.defenses:
        for attack in config.attacks:
            for rec in config.recommenders:
                nodes.append((cell_name(defense, attack, rec), "matrix_cell"))
    return nodes


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

    @property
    def derives_cells(self) -> bool:
        """Whether crafted cells must be re-measured through ingest."""
        return self.ingest is not None or self.detector is not None


def _derive_deployed_cells(
    runtime: DefenseRuntime,
    cells: Sequence[LadderCell],
    source_items: np.ndarray,
    deployed_original: np.ndarray,
    target_class: int,
    reuse_predictions: bool,
) -> List[LadderCell]:
    """Re-measure crafted cells through the defended ingest path.

    The delivered (pre-ingest) adversarial images are kept on the
    derived result so PSNR/SSIM measure what the adversary uploads;
    predictions and features reflect what the deployed system extracts
    after squeezing / detector quarantine.
    """
    derived: List[LadderCell] = []
    for cell in cells:
        adversarial = cell.result.adversarial_images
        metadata = dict(cell.result.metadata)
        if reuse_predictions and runtime.ingest is None:
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


def _cell_visual(
    cell: LadderCell,
    clean_images: np.ndarray,
    clean_raw: np.ndarray,
    reference: SSIMReference,
) -> VisualQuality:
    """The memoised visual-quality triple of one cell.

    Identical to the computation in
    :meth:`TAaMRPipeline.outcomes_from_cells` (and shares its
    ``extras["visual"]`` memo) so BPR-MF-only measurement produces the
    same numbers a visual recommender's pass would have cached.
    ``reference`` is ``ssim_reference(clean_images)``, shared by the
    cohort's cells.
    """
    visual = cell.extras.get("visual")
    if visual is None:
        result = cell.result
        adversarial = result.adversarial_images
        visual = VisualQuality(
            psnr=float(np.mean(batch_psnr(clean_images, adversarial))),
            ssim=float(
                np.mean(batch_ssim(clean_images, adversarial, reference=reference))
            ),
            psm=float(np.mean(psm_from_features(clean_raw, cell.raw_features))),
        )
        cell.extras["visual"] = visual
    return visual


def _bprmf_outcomes(
    model: BPRMF,
    clean_scores: np.ndarray,
    clean_top_n: np.ndarray,
    runtime: DefenseRuntime,
    dataset,
    scenario: AttackScenario,
    attack_name: str,
    cells: Sequence[LadderCell],
    source_items: np.ndarray,
) -> List[AttackOutcome]:
    """Measure cells against the attack-free BPR-MF control.

    BPR-MF scores carry no visual term, so the post-attack CHR equals
    the clean CHR by construction — the rows quantify what an adversary
    gains against a recommender that ignores images entirely, while the
    classifier-side success rate and visual metrics stay comparable
    with the visual recommenders' rows.
    """
    registry = dataset.registry
    target_items = np.flatnonzero(
        runtime.item_classes == registry.by_name(scenario.target).category_id
    )
    chr_source = 100.0 * category_hit_ratio(clean_top_n, source_items)
    chr_target = 100.0 * category_hit_ratio(clean_top_n, target_items)
    clean_images = dataset.images[source_items]
    clean_raw = runtime.raw_features[source_items]
    reference = ssim_reference(clean_images)
    outcomes: List[AttackOutcome] = []
    for cell in cells:
        outcomes.append(
            AttackOutcome(
                scenario=scenario,
                attack_name=attack_name,
                epsilon_255=cell.epsilon * 255.0,
                chr_source_before=chr_source,
                chr_target_before=chr_target,
                chr_source_after=chr_source,
                success_rate=cell.result.success_rate(),
                visual=_cell_visual(cell, clean_images, clean_raw, reference),
                attacked_item_ids=source_items,
                adversarial_images=cell.result.adversarial_images,
                scores_after=clean_scores,
                attack_metadata=dict(cell.result.metadata),
            )
        )
    return outcomes


# --------------------------------------------------------------------- #
# Manifest and results
# --------------------------------------------------------------------- #


@dataclass
class MatrixManifest:
    """Provenance record of one matrix run: base stages + matrix nodes."""

    config: Dict[str, Any]
    store_root: Optional[str]
    base_stages: List[StageOutcome] = field(default_factory=list)
    nodes: List[StageOutcome] = field(default_factory=list)
    attack_stats: Optional[Dict[str, Any]] = None
    success_rates: Dict[str, float] = field(default_factory=dict)
    skipped_scenarios: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def cells(self) -> Dict[str, str]:
        """Per-cell fingerprints (node name → fingerprint)."""
        return {
            node.name: node.fingerprint
            for node in self.nodes
            if node.name.startswith("cell:")
        }

    @property
    def built(self) -> List[str]:
        return [n.name for n in self.base_stages + self.nodes if n.action == "built"]

    @property
    def cache_hits(self) -> List[str]:
        return [n.name for n in self.base_stages + self.nodes if n.action == "hit"]

    @property
    def total_seconds(self) -> float:
        return sum(n.seconds for n in self.base_stages + self.nodes)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "manifest_version": 1,
            "config": self.config,
            "store_root": self.store_root,
            "total_seconds": self.total_seconds,
            "built": self.built,
            "cache_hits": self.cache_hits,
            "base_stages": [o.as_dict() for o in self.base_stages],
            "nodes": [o.as_dict() for o in self.nodes],
            "cells": self.cells,
            "attack_stats": self.attack_stats,
            "success_rates": self.success_rates,
            "skipped_scenarios": self.skipped_scenarios,
        }

    def save(self, path: str) -> None:
        write_json(path, self.as_dict())


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

    Every node goes through the stage DAG's load-verify-or-build
    protocol (:func:`~repro.experiments.stages.load_node` /
    :func:`~repro.experiments.stages.save_node`): an artifact load keyed
    by its chained fingerprint, verified against the content hashes of
    the upstream nodes of *this* run, and a rebuild on any mismatch.
    Base stages run first through the static DAG, so both layers share
    one store.
    """

    def __init__(
        self,
        config: MatrixConfig,
        store: Optional[ArtifactStore] = None,
        verbose: bool = False,
    ) -> None:
        self.config = config
        self.store = store
        self.verbose = verbose
        self.fingerprints = matrix_fingerprints(config)

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[repro] {message}", flush=True)

    # -- shared stage selection ---------------------------------------- #
    def _base_stages_needed(self) -> List[str]:
        visual = any(r in VISUAL_RECOMMENDERS for r in self.config.recommenders)
        identity = any(d not in RETRAINING_DEFENSES for d in self.config.defenses)
        if visual and identity:
            return ["clean_scores"]
        return ["features"]

    # -- planning ------------------------------------------------------- #
    def plan(self) -> List[StagePlan]:
        """What :meth:`run` would do, without executing anything."""
        plans = StageRunner(self.config.base, store=self.store).plan(
            self._base_stages_needed()
        )
        for name, kind in matrix_node_order(self.config):
            fingerprint = self.fingerprints[name]
            cached = bool(self.store and self.store.exists(kind, fingerprint))
            plans.append(
                StagePlan(
                    name=name,
                    fingerprint=fingerprint,
                    cached=cached,
                    would="load" if cached else "build",
                )
            )
        return plans

    def _stored(self, name: str, kind: str, deps: Sequence[str]) -> StoredNode:
        return StoredNode(
            name=name,
            kind=kind,
            fingerprint=self.fingerprints[name],
            schema_version=MATRIX_SCHEMA_VERSION,
            deps=tuple(deps),
            compress=False,
        )

    # -- model nodes ----------------------------------------------------- #
    def _model_node(
        self, name: str, kind: str, base: StageResults, models: Dict[str, Any]
    ) -> Tuple[Tuple[str, ...], Callable[[], Any], Callable[[Dict, Dict], Any]]:
        """``(deps, build, unpack)`` of one non-cell node.

        ``build`` returns the ``(arrays, meta)`` payload; ``unpack``
        turns a payload (fresh or stored) into the node's value.
        """
        config = self.config.base
        dataset = base.dataset
        if kind == "matrix_surrogate":
            seed = self.config.transfer_seed

            def build_surrogate():
                model, _ = _train_classifier(config, dataset, seed)
                return model.state_dict(), {}

            return (
                ("dataset",),
                build_surrogate,
                lambda arrays, meta: _load_classifier(config, dataset, seed, arrays),
            )
        if kind == "matrix_bprmf":

            def make_bprmf() -> BPRMF:
                return BPRMF(
                    dataset.num_users,
                    dataset.num_items,
                    BPRMFConfig(epochs=config.recommender_epochs, seed=config.seed),
                )

            return (
                ("dataset",),
                lambda: (make_bprmf().fit(dataset.feedback).state_dict(), {}),
                lambda arrays, meta: make_bprmf().load_state_dict(arrays),
            )
        if kind == "matrix_defense":
            build, unpack = self._defense_node(name.partition(":")[2], base)
            return ("dataset", "classifier"), build, unpack
        # "recommender:<defense>/<VBPR|AMR>", trained on the defense's features.
        defense, _, rec = name.partition(":")[2].partition("/")
        make = _make_vbpr if rec == "VBPR" else _make_amr
        features = models[f"defense:{defense}"].features
        return (
            ("dataset", f"defense:{defense}"),
            lambda: (make(config, dataset, features).fit(dataset.feedback).state_dict(), {}),
            lambda arrays, meta: make(config, dataset, features).load_state_dict(arrays),
        )

    def _defense_node(self, defense: str, base: StageResults):
        """``(build, unpack)`` of one retraining defense's deployed catalog."""
        config = self.config
        dataset = base.dataset
        squeezer = (
            FeatureSqueezer(
                bits=config.squeeze_bits, median_kernel=config.squeeze_median_kernel
            )
            if defense == "squeeze"
            else None
        )
        seed = config.base.seed + 1 if defense == "distill" else config.base.seed

        def build():
            if defense == "adv_train":
                classifier = _make_classifier(config.base, dataset, seed)
                classifier.load_state_dict(base.classifier.state_dict())
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
                    base.classifier,
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
                classifier = base.classifier
            images = dataset.images if squeezer is None else squeezer(dataset.images)
            extractor, raw, _, classes = _catalog_features(classifier, images)
            arrays: Dict[str, np.ndarray] = {"raw_features": raw, "item_classes": classes}
            arrays.update(
                {f"norm__{k}": v for k, v in extractor.normalization_state().items()}
            )
            if squeezer is None:
                arrays.update({f"clf__{k}": v for k, v in classifier.state_dict().items()})
            return arrays, {"defense": defense}

        def unpack(arrays, meta) -> DefenseRuntime:
            if squeezer is None:
                state = {
                    k[len("clf__"):]: v for k, v in arrays.items() if k.startswith("clf__")
                }
                classifier = _load_classifier(config.base, dataset, seed, state)
            else:
                classifier = base.classifier
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
                    item_classes if squeezer is None else base.item_classes
                ),
                ingest=squeezer,
            )

        return build, unpack

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
        )
        if defense == "detector":
            detector = ReconstructionDetector(self.config.detector_components)
            detector.fit(base.raw_features)
            detector.calibrate(base.raw_features, self.config.detector_fpr)
            runtime.detector = detector
        return runtime

    # -- crafting -------------------------------------------------------- #
    def _craft_cells(
        self,
        runtime: DefenseRuntime,
        surrogate: Optional[TinyResNet],
        attack_name: str,
        scenario: AttackScenario,
        images: np.ndarray,
        source_items: np.ndarray,
        target_class: int,
    ) -> List[LadderCell]:
        base = self.config.base
        if attack_name == "TRANSFER":
            craft_model = surrogate
            craft_attack = "PGD"
            original = craft_model.predict(images)
        else:
            craft_model = runtime.classifier
            craft_attack = attack_name
            original = runtime.attack_item_classes[source_items]
        options = self.config.attack_options(craft_attack)
        if craft_attack in LADDER_ATTACKS:
            ladder = build_ladder(
                craft_attack,
                craft_model,
                tuple(epsilon_from_255(eps) for eps in base.epsilons_255),
                base.ladder_mode,
                pgd_steps=base.pgd_steps,
                seed=base.seed,
                options=options,
            )
            with span(
                "matrix.ladder",
                defense=runtime.name,
                attack=attack_name,
                source=scenario.source,
                target=scenario.target,
                items=int(source_items.size),
            ):
                return ladder.run(images, target_class, original_predictions=original)
        return fallback_ladder_cells(
            craft_model,
            craft_attack,
            images,
            target_class,
            original,
            base.epsilons_255,
            pgd_steps=base.pgd_steps,
            seed=base.seed,
            options=options,
        )

    # -- execution ------------------------------------------------------- #
    def run(self, force: Sequence[str] = ()) -> Tuple[MatrixResults, MatrixManifest]:
        """Run every configured cell, loading whatever is still valid.

        ``force`` names matrix nodes (``defense:squeeze``,
        ``cell:none/FGSM/VBPR``, ...) that must rebuild even when a
        valid artifact exists.  Model nodes (surrogate, BPR-MF, retrained
        defenses and their recommenders) resolve first, in
        :func:`matrix_node_order`; then each defense's column of cells.
        """
        config = self.config
        order = matrix_node_order(config)
        force_set = set(force or ())
        unknown = force_set.difference(name for name, _ in order)
        if unknown:
            raise ValueError(f"unknown matrix nodes in force={sorted(unknown)}")

        base, base_manifest = StageRunner(
            config.base, store=self.store, verbose=self.verbose
        ).run(stages=self._base_stages_needed())
        hashes: Dict[str, str] = {
            outcome.name: outcome.content_hash
            for outcome in base_manifest.stages
            if outcome.content_hash
        }
        manifest = MatrixManifest(
            config={**asdict(config), "base": asdict(config.base)},
            store_root=self.store.root if self.store else None,
            base_stages=list(base_manifest.stages),
        )

        models: Dict[str, Any] = {}
        for name, kind in order:
            if kind == "matrix_cell":
                continue
            deps, build, unpack = self._model_node(name, kind, base, models)
            node = self._stored(name, kind, deps)
            with span(f"matrix.{name}", fingerprint=node.fingerprint):
                loaded, outcome, reason = load_node(
                    self.store, node, hashes, name in force_set
                )
                if loaded is not None:
                    models[name] = unpack(loaded.arrays, loaded.meta)
                    self._log(f"node {name}: loaded from store ({node.fingerprint})")
                else:
                    watch = Stopwatch()
                    arrays, meta = build()
                    models[name] = unpack(arrays, meta)
                    outcome = save_node(
                        self.store, node, hashes, arrays, meta, watch.elapsed(), reason
                    )
                    self._log(f"node {name}: built ({reason})")
            manifest.nodes.append(outcome)

        surrogate: Optional[TinyResNet] = models.get("surrogate")
        bprmf: Optional[BPRMF] = models.get("recommender:shared/BPRMF")
        bprmf_scores = bprmf_top_n = None
        if bprmf is not None:
            bprmf_scores = bprmf.score_all()
            bprmf_top_n = bprmf.top_n(
                min(config.base.cutoff, base.dataset.num_items),
                feedback=base.dataset.feedback,
                scores=bprmf_scores,
            )

        scenarios = paper_scenarios(base.dataset.name, base.dataset.registry)
        rows_by_cell: Dict[Tuple[str, str, str], List[Dict[str, Any]]] = {}

        for defense in config.defenses:
            if defense in RETRAINING_DEFENSES:
                runtime = models[f"defense:{defense}"]
                rec_models = {
                    rec: models[f"recommender:{defense}/{rec}"]
                    for rec in config.recommenders
                    if rec in VISUAL_RECOMMENDERS
                }
            else:
                runtime = self._base_runtime(defense, base)
                # The deployed state of identity-ingest defenses *is* the
                # base features artifact; chain their content identity
                # through it.
                hashes[f"defense:{defense}"] = hashes.get("features", "")
                rec_models = {
                    rec: base.recommender(rec)
                    for rec in config.recommenders
                    if rec in VISUAL_RECOMMENDERS
                }

            # Load every still-valid cell of this defense's column first;
            # only the misses pay for crafting and measurement.
            pending: Dict[Tuple[str, str], Tuple[StoredNode, str]] = {}
            for attack in config.attacks:
                for rec in config.recommenders:
                    node = self._stored(
                        cell_name(defense, attack, rec),
                        "matrix_cell",
                        self._cell_deps(defense, attack, rec),
                    )
                    loaded, outcome, reason = load_node(
                        self.store, node, hashes, node.name in force_set
                    )
                    if loaded is None:
                        pending[(attack, rec)] = (node, reason)
                        continue
                    self._log(f"node {node.name}: loaded from store ({node.fingerprint})")
                    rows_by_cell[(defense, attack, rec)] = list(loaded.meta["rows"])
                    manifest.nodes.append(outcome)
                    skipped = list(loaded.meta.get("skipped_scenarios", []))
                    if skipped:
                        manifest.skipped_scenarios.setdefault(defense, skipped)

            if not pending:
                continue

            pipelines: Dict[str, TAaMRPipeline] = {}
            for rec in VISUAL_RECOMMENDERS:
                if any(r == rec for _, r in pending):
                    pipelines[rec] = TAaMRPipeline(
                        base.dataset,
                        runtime.extractor,
                        rec_models[rec],
                        cutoff=config.base.cutoff,
                        precomputed=CatalogState(
                            item_classes=runtime.item_classes,
                            raw_features=runtime.raw_features,
                            features=runtime.features,
                            clean_scores=runtime.clean_scores.get(rec),
                        ),
                    )
            scratch = (
                FeatureScratch(next(iter(pipelines.values())).clean_features)
                if pipelines
                else None
            )
            attacks_needed = [a for a in config.attacks if any(x == a for x, _ in pending)]
            fresh: Dict[Tuple[str, str], List[Dict[str, Any]]] = {
                key: [] for key in pending
            }
            skipped: List[str] = []
            timer = Stopwatch()
            for scenario in scenarios:
                registry = base.dataset.registry
                target_class = registry.by_name(scenario.target).category_id
                source_items = np.flatnonzero(
                    runtime.item_classes
                    == registry.by_name(scenario.source).category_id
                )
                if source_items.size == 0:
                    skipped.append(f"{scenario.source}->{scenario.target}")
                    continue
                deployed_original = runtime.item_classes[source_items]
                images = base.dataset.images[source_items]
                for attack in attacks_needed:
                    cells = self._craft_cells(
                        runtime,
                        surrogate,
                        attack,
                        scenario,
                        images,
                        source_items,
                        target_class,
                    )
                    if attack == "TRANSFER" or runtime.derives_cells:
                        cells = _derive_deployed_cells(
                            runtime,
                            cells,
                            source_items,
                            deployed_original,
                            target_class,
                            reuse_predictions=attack != "TRANSFER",
                        )
                    for rec in config.recommenders:
                        if (attack, rec) not in fresh:
                            continue
                        if rec == "BPRMF":
                            outcomes = _bprmf_outcomes(
                                bprmf,
                                bprmf_scores,
                                bprmf_top_n,
                                runtime,
                                base.dataset,
                                scenario,
                                attack,
                                cells,
                                source_items,
                            )
                        else:
                            outcomes = pipelines[rec].outcomes_from_cells(
                                scenario, attack, cells, scratch=scratch
                            )
                        for outcome in outcomes:
                            row = _grid_row(rec, outcome, config.base.ladder_mode)
                            row["defense"] = defense
                            row["flagged_items"] = int(
                                outcome.attack_metadata.get("screen_flagged", 0)
                            )
                            fresh[(attack, rec)].append(row)

            if skipped:
                manifest.skipped_scenarios[defense] = skipped
            share = timer.elapsed() / len(pending)
            for (attack, rec), (node, reason) in pending.items():
                rows = fresh[(attack, rec)]
                outcome = save_node(
                    self.store,
                    node,
                    hashes,
                    {},
                    {"rows": rows, "skipped_scenarios": skipped},
                    share,
                    reason,
                )
                self._log(f"node {node.name}: built ({reason})")
                manifest.nodes.append(outcome)
                rows_by_cell[(defense, attack, rec)] = rows

        all_rows: List[Dict[str, Any]] = []
        for defense in config.defenses:
            for attack in config.attacks:
                for rec in config.recommenders:
                    all_rows.extend(rows_by_cell.get((defense, attack, rec), []))

        manifest.attack_stats = attack_stats_from_rows(all_rows)
        manifest.success_rates = success_rates_by_attack(all_rows)
        return (
            MatrixResults(config=config, rows=all_rows, base=base, bprmf=bprmf),
            manifest,
        )

    def _cell_deps(self, defense: str, attack: str, rec: str) -> Tuple[str, ...]:
        deps = [f"defense:{defense}", recommender_node(defense, rec)]
        if attack == "TRANSFER":
            deps.append("surrogate")
        return tuple(deps)


def run_matrix(
    config: MatrixConfig,
    store: Optional[ArtifactStore] = None,
    force: Sequence[str] = (),
    verbose: bool = False,
) -> Tuple[MatrixResults, MatrixManifest]:
    """One-shot convenience wrapper around :class:`MatrixRunner`."""
    return MatrixRunner(config, store=store, verbose=verbose).run(force=force)


# --------------------------------------------------------------------- #
# Cube views
# --------------------------------------------------------------------- #


def success_rates_by_attack(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Mean targeted success rate per attack across the whole cube.

    Per-row rates come from
    :func:`~repro.attacks.evaluation.targeted_success_rate` via
    ``AttackResult.success_rate``; this aggregates them for the
    manifest's summary block.
    """
    by_attack: Dict[str, List[float]] = {}
    for row in rows:
        by_attack.setdefault(str(row["attack"]), []).append(float(row["success_rate"]))
    return {
        attack: float(np.mean(rates)) for attack, rates in sorted(by_attack.items())
    }


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
