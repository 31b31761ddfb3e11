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
The graph is declared once, by :func:`matrix_nodes`; fingerprints,
execution order and plans all derive from that list.  Each column is
crafted and measured by the static stage's own attack-grid loop,
:func:`~repro.experiments.runner.grid_outcomes`.

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
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..artifacts import ArtifactStore, write_json
from ..attacks import LadderCell
from ..attacks.base import AttackResult
from ..attacks.projections import epsilon_from_255
from ..core import (
    AttackOutcome,
    CatalogState,
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
from ..telemetry import Stopwatch, span
from .config import ExperimentConfig
from .runner import Craft, grid_outcomes, pipeline_measures
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
    stage_fingerprints,
)

# perfbench's layer timers wrap these names on this module by attribute
# (the visual metrics and the per-cell fallback); they stay importable.
from ..metrics import batch_psnr, batch_ssim, psm_from_features  # noqa: F401
from .runner import fallback_ladder_cells  # noqa: F401

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


@dataclass(frozen=True)
class MatrixNode:
    """One node of the matrix graph.

    ``deps`` maps each fingerprint payload key to the upstream node it
    chains off; its values are also the nodes whose content hashes a
    stored artifact is verified against.  ``kind`` is ``None`` for the
    identity-ingest defenses, which store nothing: the base ``features``
    artifact is their deployed state.  A model node's ``build(base,
    models)`` returns its ``(arrays, meta)`` payload and ``unpack(base,
    models, arrays, meta)`` turns a payload (fresh or stored) into its
    value; ``base`` is the run's base-stage results and ``models`` the
    values of the nodes resolved before it.  Cells have neither — a
    defense's column of cells is crafted and measured at once, through
    the attack-grid loop.
    """

    name: str
    kind: Optional[str]
    deps: Dict[str, str]
    payload: Dict[str, Any]
    build: Optional[Callable[..., Tuple[Dict[str, np.ndarray], Dict[str, Any]]]] = None
    unpack: Optional[Callable[..., Any]] = None


def matrix_nodes(config: MatrixConfig) -> List[MatrixNode]:
    """The configured matrix's node graph in execution order, cells last.

    Model nodes come first: the TRANSFER surrogate, the shared BPR-MF
    control, then each defense followed by the recommenders retrained
    in its feature space.  Every defense's column of cells follows.
    """
    experiment = config.base
    nodes: List[MatrixNode] = []
    if "TRANSFER" in config.attacks:
        seed = config.transfer_seed
        payload = {**experiment.field_fingerprint(_CLASSIFIER_FIELDS), "transfer_seed": seed}
        nodes.append(
            MatrixNode(
                "surrogate",
                "matrix_surrogate",
                {"dataset": "dataset"},
                payload,
                build=lambda base, models: (
                    _train_classifier(experiment, base.dataset, seed)[0].state_dict(),
                    {},
                ),
                unpack=lambda base, models, arrays, meta: _load_classifier(
                    experiment, base.dataset, seed, arrays
                ),
            )
        )
    if "BPRMF" in config.recommenders:
        bprmf = BPRMFConfig(epochs=experiment.recommender_epochs, seed=experiment.seed)
        nodes.append(
            MatrixNode(
                "recommender:shared/BPRMF",
                "matrix_bprmf",
                {"dataset": "dataset"},
                experiment.field_fingerprint(("recommender_epochs", "seed")),
                *_fitted(
                    lambda base, models: BPRMF(
                        base.dataset.num_users, base.dataset.num_items, bprmf
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
            nodes.append(MatrixNode(name, None, {**deps, "features": "features"}, payload))
            continue
        nodes.append(
            MatrixNode(name, "matrix_defense", deps, payload, *_defense(config, defense))
        )
        for rec in config.recommenders:
            if rec in VISUAL_RECOMMENDERS:
                make = partial(
                    _retrained, _make_vbpr if rec == "VBPR" else _make_amr, experiment, name
                )
                nodes.append(
                    MatrixNode(
                        f"recommender:{defense}/{rec}",
                        "matrix_recommender",
                        {"dataset": "dataset", "defense": name},
                        experiment.field_fingerprint(_RECOMMENDER_CONFIG_FIELDS[rec]),
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
                nodes.append(MatrixNode(name, "matrix_cell", deps, payload))
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
    fps: Dict[str, str] = dict(stage_fingerprints(config.base))
    for node in matrix_nodes(config):
        fps[node.name] = chained_fingerprint(
            node.name,
            MATRIX_SCHEMA_VERSION,
            node.payload,
            {key: fps[upstream] for key, upstream in node.deps.items()},
        )
    return fps


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
        cells, dataset.images[source_items], runtime.raw_features[source_items]
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


# --------------------------------------------------------------------- #
# Model nodes: build / unpack
# --------------------------------------------------------------------- #


def _fitted(make: Callable[..., Any]) -> Tuple[Callable, Callable]:
    """A recommender node: ``make(base, models)`` fit on the feedback, or loaded."""

    def build(base, models):
        return make(base, models).fit(base.dataset.feedback).state_dict(), {}

    def unpack(base, models, arrays, meta):
        return make(base, models).load_state_dict(arrays)

    return build, unpack


def _retrained(make, experiment: ExperimentConfig, defense_node: str, base, models):
    """VBPR or AMR (``make``) over one retraining defense's features."""
    return make(experiment, base.dataset, models[defense_node].features)


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

    def build(base, models):
        dataset = base.dataset
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

    def unpack(base, models, arrays, meta) -> DefenseRuntime:
        if squeezer is None:
            state = {
                k[len("clf__"):]: v for k, v in arrays.items() if k.startswith("clf__")
            }
            classifier = _load_classifier(config.base, base.dataset, seed, state)
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
        self.nodes = matrix_nodes(config)
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
        return plans + [
            StagePlan.probe(self.store, node.name, node.kind, self.fingerprints[node.name])
            for node in self.nodes
            if node.kind
        ]

    def _stored(self, node: MatrixNode) -> StoredNode:
        return StoredNode(
            name=node.name,
            kind=node.kind,
            fingerprint=self.fingerprints[node.name],
            schema_version=MATRIX_SCHEMA_VERSION,
            deps=tuple(node.deps.values()),
            compress=False,
        )

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

    def _measure_column(
        self,
        runtime: DefenseRuntime,
        pairs: Sequence[Tuple[str, str]],
        base: StageResults,
        models: Dict[str, Any],
        control: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[Dict[Tuple[str, str], List[AttackOutcome]], List[AttackScenario]]:
        """Craft and measure one defense's ``(attack, recommender)`` ``pairs``.

        The matrix's own parts ride into the attack-grid loop: TRANSFER
        crafts PGD on the surrogate, :func:`_deliver` re-measures cells
        through squeeze / detector, and BPR-MF measures through its
        control.  White-box attacks craft on the deployed classifier
        from the classes the adversary sees.
        """
        config = self.config
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
                    ),
                )
                for rec in recs
                if rec in VISUAL_RECOMMENDERS
            }
        )
        if "BPRMF" in recs:
            measures["BPRMF"] = partial(_bprmf_outcomes, control, runtime, base.dataset)
        return grid_outcomes(
            crafts,
            runtime.item_classes,
            base.dataset,
            paper_scenarios(base.dataset.name, base.dataset.registry),
            measures,
            config.base.epsilons_255,
            config.base.pgd_steps,
            config.base.seed,
            config.base.ladder_mode,
            deliver=partial(_deliver, runtime),
            skip_empty=True,
            pairs=pairs,
        )

    # -- execution ------------------------------------------------------- #
    def run(self, force: Sequence[str] = ()) -> Tuple[MatrixResults, MatrixManifest]:
        """Run every configured cell, loading whatever is still valid.

        ``force`` names matrix nodes (``defense:squeeze``,
        ``cell:none/FGSM/VBPR``, ...) that must rebuild even when a
        valid artifact exists.  Model nodes (surrogate, BPR-MF, retrained
        defenses and their recommenders) resolve first, in
        :func:`matrix_nodes` order; then each defense's column of cells.
        """
        config = self.config
        force_set = set(force or ())
        unknown = force_set.difference(node.name for node in self.nodes if node.kind)
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

        # Node values by name, starting from the base recommenders the
        # identity-ingest defenses' cells point at.
        models: Dict[str, Any] = {"vbpr": base.vbpr, "amr": base.amr}
        for node in self.nodes:
            if node.build is None:
                continue
            stored = self._stored(node)
            with span(f"matrix.{node.name}", fingerprint=stored.fingerprint):
                loaded, outcome, reason = load_node(
                    self.store, stored, hashes, node.name in force_set
                )
                if loaded is not None:
                    arrays, meta = loaded.arrays, loaded.meta
                    self._log(f"node {node.name}: loaded from store ({stored.fingerprint})")
                else:
                    watch = Stopwatch()
                    arrays, meta = node.build(base, models)
                    outcome = save_node(
                        self.store, stored, hashes, arrays, meta, watch.elapsed(), reason
                    )
                    self._log(f"node {node.name}: built ({reason})")
                models[node.name] = node.unpack(base, models, arrays, meta)
            manifest.nodes.append(outcome)

        bprmf: Optional[BPRMF] = models.get("recommender:shared/BPRMF")
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
        for defense in config.defenses:
            if defense not in RETRAINING_DEFENSES:
                # The deployed state of identity-ingest defenses *is* the
                # base features artifact; chain their content identity
                # through it.
                hashes[f"defense:{defense}"] = hashes.get("features", "")

            # Load every still-valid cell of this defense's column first;
            # only the misses pay for crafting and measurement.
            pending: Dict[Tuple[str, str], Tuple[StoredNode, str]] = {}
            for attack in config.attacks:
                for rec in config.recommenders:
                    node = self._stored(by_name[cell_name(defense, attack, rec)])
                    loaded, outcome, reason = load_node(
                        self.store, node, hashes, node.name in force_set
                    )
                    if loaded is None:
                        pending[(attack, rec)] = (node, reason)
                        continue
                    self._log(f"node {node.name}: loaded from store ({node.fingerprint})")
                    rows_by_cell[node.name] = list(loaded.meta["rows"])
                    manifest.nodes.append(outcome)
                    skipped = list(loaded.meta.get("skipped_scenarios", []))
                    if skipped:
                        manifest.skipped_scenarios.setdefault(defense, skipped)

            if not pending:
                continue

            runtime = (
                models[f"defense:{defense}"]
                if defense in RETRAINING_DEFENSES
                else self._base_runtime(defense, base)
            )
            timer = Stopwatch()
            outcomes, skipped_scenarios = self._measure_column(
                runtime, list(pending), base, models, control
            )
            skipped = [f"{s.source}->{s.target}" for s in skipped_scenarios]
            if skipped:
                manifest.skipped_scenarios[defense] = skipped
            share = timer.elapsed() / len(pending)
            for (attack, rec), (node, reason) in pending.items():
                rows = [
                    {
                        **_grid_row(rec, outcome, config.base.ladder_mode),
                        "defense": defense,
                        "flagged_items": int(outcome.attack_metadata.get("screen_flagged", 0)),
                    }
                    for outcome in outcomes[(attack, rec)]
                ]
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
                rows_by_cell[node.name] = rows

        all_rows = [
            row
            for node in self.nodes
            if node.kind == "matrix_cell"
            for row in rows_by_cell[node.name]
        ]
        manifest.attack_stats = attack_stats_from_rows(all_rows)
        manifest.success_rates = success_rates_by_attack(all_rows)
        return (
            MatrixResults(config=config, rows=all_rows, base=base, bprmf=bprmf),
            manifest,
        )


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
