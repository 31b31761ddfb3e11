"""The experiment DAG: one node type and one load-verify-or-build executor.

The paper's Fig. 1 pipeline is an acyclic chain of expensive stages::

    dataset ─→ classifier ─→ features ─┬─→ vbpr ─┬─→ clean_scores ─→ attack_grid ─→ tables
                                       └─→ amr ──┘

Every node of the DAG — each stage here and each scenario-matrix node
(:mod:`repro.experiments.matrix`) — is a :class:`Node`: its name, its
artifact kind, the upstream nodes it chains off, the config payload it
reads, and how it is built and unpacked.  :func:`stage_nodes` declares
each stage over exactly the
:class:`~repro.experiments.config.ExperimentConfig` fields it reads, and
a node's *fingerprint* hashes that payload with its upstream
fingerprints (:func:`node_fingerprints`), so:

* editing ``epsilons_255`` re-fingerprints only ``attack_grid`` and
  ``tables`` — dataset, classifier, features and both recommenders load
  from the :class:`~repro.artifacts.ArtifactStore` untouched;
* changing ``cutoff`` re-runs scoring and the grid but never retrains;
* swapping ``classifier_epochs`` invalidates everything downstream of
  the classifier, as it must.

Every artifact additionally records the *content hashes* of the inputs
it was built from; :class:`NodeExecutor` verifies them on load and
rebuilds instead of silently consuming a stale chain.  The executor is
the one loop every node runs through: :class:`StageRunner` drives it over
the stages, the matrix runner over the base stages and its model nodes
as one list, and the matrix's cell columns load and save through its
:meth:`~NodeExecutor.load_node` / :meth:`~NodeExecutor.save_node`.  Both
runners emit one :class:`RunManifest` — per-node fingerprints, artifact
hashes, hit/built actions, wall-clock timings and the attack accounting
of the rows — the JSON trail behind ``python -m repro run`` and
``python -m repro matrix``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..artifacts import (
    ArtifactError,
    ArtifactStore,
    LoadedArtifact,
    MemoryArtifactStore,
    Store,
    write_json,
)
from ..core import CatalogState, TAaMRPipeline, paper_scenarios
from ..data import MultimediaDataset, amazon_men_like, amazon_women_like
from ..data.serialization import pack_dataset, unpack_dataset
from ..features import ClassifierConfig, ClassifierTrainer, FeatureExtractor
from ..nn import TinyResNet
from ..recommenders import AMR, AMRConfig, VBPR, VBPRConfig
from ..telemetry import Stopwatch, span
from .config import ExperimentConfig
from .runner import (
    GRID_ATTACK_NAMES,
    Column,
    Craft,
    format_table2,
    format_table3,
    format_table4,
    grid_order,
    grid_outcomes,
    grid_row as _grid_row,
    pipeline_measures,
    row_measures,
)

RECOMMENDER_NAMES = ("VBPR", "AMR")

#: Schema stamp of every node artifact and fingerprint.
SCHEMA_VERSION = 1

Payload = Tuple[Dict[str, np.ndarray], Dict[str, Any]]


# --------------------------------------------------------------------- #
# The node declaration
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Node:
    """One node of the DAG.

    ``kind`` names its artifact; ``None`` marks a node that stores
    nothing (an identity-ingest defense, whose deployed state is the
    base ``features`` artifact).  ``deps`` maps each fingerprint payload
    key to the upstream node it chains off; its values are also the
    nodes whose content hashes a stored artifact is verified against.
    ``payload`` is the node's own configuration, hashed into its
    fingerprint.  ``build(results)`` returns the node's ``(arrays,
    meta)`` and ``unpack(results, arrays, meta)`` turns that payload,
    fresh or stored, into the node's value, which the executor files
    under the node's name in ``results.values``.  Nodes without them
    (the matrix cells) are crafted and measured a defense column at a
    time.
    """

    name: str
    kind: Optional[str]
    deps: Dict[str, str]
    payload: Dict[str, Any]
    build: Optional[Callable[["StageResults"], Payload]] = None
    unpack: Optional[Callable[..., Any]] = None


def node_fingerprints(nodes: Sequence[Node]) -> Dict[str, str]:
    """Each node's fingerprint: its own payload + its upstream fingerprints.

    The single hashing convention of the DAG, for stages and matrix
    nodes alike, so invalidation semantics cannot diverge between them.
    Purely config-derived (no artifact needed), so plans and
    ``--explain`` work before anything has ever been built.
    """
    fingerprints: Dict[str, str] = {}
    for node in nodes:
        canonical = json.dumps(
            {
                "stage": node.name,
                "schema": SCHEMA_VERSION,
                "config": node.payload,
                "deps": {key: fingerprints[dep] for key, dep in node.deps.items()},
            },
            sort_keys=True,
        )
        fingerprints[node.name] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return fingerprints


def node_closure(nodes: Sequence[Node], targets: Sequence[str]) -> List[Node]:
    """The ``targets`` plus every transitive dependency, in ``nodes`` order."""
    by_name = {node.name: node for node in nodes}
    unknown = [name for name in targets if name not in by_name]
    if unknown:
        raise ValueError(f"unknown stages {unknown}; available: {list(by_name)}")
    needed = set()
    pending = list(targets)
    while pending:
        name = pending.pop()
        if name not in needed:
            needed.add(name)
            pending.extend(by_name[name].deps.values())
    return [node for node in nodes if node.name in needed]


# --------------------------------------------------------------------- #
# Run manifest
# --------------------------------------------------------------------- #


@dataclass
class StageOutcome:
    """What happened to one stage during a run."""

    name: str
    fingerprint: str
    action: str  # "hit" | "built"
    seconds: float
    content_hash: Optional[str] = None
    path: Optional[str] = None
    reason: str = ""  # why a build happened (miss, forced, stale, ...)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class RunManifest:
    """The provenance record of one stage run or one matrix run.

    ``stages`` holds every node outcome in run order: the base stages
    first, then (for a matrix run) the surrogate, defenses,
    recommenders and cells.  Everything else a summary shows derives
    from these fields, and :meth:`as_dict` writes one key set for both
    runners.
    """

    config_key: str
    config: Dict[str, Any]
    store_root: Optional[str]
    stages: List[StageOutcome] = field(default_factory=list)
    #: Telemetry report (metrics snapshot / hot-op table) when the run
    #: was executed inside a telemetry session.
    telemetry: Optional[Dict[str, Any]] = None
    #: :func:`attack_stats_from_rows` over the run's grid or cube rows.
    attack_stats: Optional[Dict[str, Any]] = None
    #: Per matrix defense, the scenarios skipped for an empty cohort.
    skipped_scenarios: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def base_stages(self) -> List[StageOutcome]:
        return [o for o in self.stages if o.name in STAGE_ORDER]

    @property
    def nodes(self) -> List[StageOutcome]:
        """The matrix nodes: every outcome that is not a base stage."""
        return [o for o in self.stages if o.name not in STAGE_ORDER]

    @property
    def cells(self) -> Dict[str, str]:
        """Per-cell fingerprints (node name → fingerprint)."""
        return {o.name: o.fingerprint for o in self.stages if o.name.startswith("cell:")}

    @property
    def total_seconds(self) -> float:
        return sum(outcome.seconds for outcome in self.stages)

    @property
    def cache_hits(self) -> List[str]:
        return [o.name for o in self.stages if o.action == "hit"]

    @property
    def built(self) -> List[str]:
        return [o.name for o in self.stages if o.action == "built"]

    @property
    def all_hits(self) -> bool:
        return bool(self.stages) and not self.built

    def as_dict(self) -> Dict[str, Any]:
        return {
            "manifest_version": 2,
            "config_key": self.config_key,
            "config": self.config,
            "store_root": self.store_root,
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
            "built": self.built,
            "stages": [outcome.as_dict() for outcome in self.stages],
            "cells": self.cells,
            "telemetry": self.telemetry,
            "attack_stats": self.attack_stats,
            "skipped_scenarios": self.skipped_scenarios,
        }

    def save(self, path: str) -> None:
        write_json(path, self.as_dict())


# --------------------------------------------------------------------- #
# Stage results (the in-memory side of a run)
# --------------------------------------------------------------------- #


@dataclass
class StageResults:
    """Deserialized outputs of every node touched by a run."""

    config: ExperimentConfig
    #: Each resolved node's value by node name: the dataset, the
    #: classifier, the recommenders, and the matrix's model nodes.
    values: Dict[str, Any] = field(default_factory=dict, repr=False)
    classifier_accuracy: Optional[float] = None
    extractor: Optional[FeatureExtractor] = None
    raw_features: Optional[np.ndarray] = field(default=None, repr=False)
    features: Optional[np.ndarray] = field(default=None, repr=False)
    item_classes: Optional[np.ndarray] = field(default=None, repr=False)
    clean_scores: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    clean_top_n: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    grid_rows: List[Dict[str, Any]] = field(default_factory=list, repr=False)
    tables_text: Optional[str] = None
    #: The run's provenance record; :func:`build_context` attaches it.
    manifest: Optional[RunManifest] = field(default=None, repr=False)

    @property
    def dataset(self) -> Optional[MultimediaDataset]:
        return self.values.get("dataset")

    @property
    def classifier(self) -> Optional[TinyResNet]:
        return self.values.get("classifier")

    @property
    def vbpr(self) -> Optional[VBPR]:
        return self.values.get("vbpr")

    @property
    def amr(self) -> Optional[AMR]:
        return self.values.get("amr")

    def recommender(self, name: str) -> VBPR:
        key = name.strip().upper()
        model = self.values.get(key.lower()) if key in RECOMMENDER_NAMES else None
        if model is None:
            raise KeyError(f"recommender '{name}' is not part of these results")
        return model

    def catalog_state(self, recommender_name: Optional[str] = None) -> CatalogState:
        """The precomputed-state bundle a TAaMRPipeline warm-starts from."""
        if self.item_classes is None or self.raw_features is None:
            raise RuntimeError("features stage has not run; no catalog state")
        key = recommender_name.strip().upper() if recommender_name is not None else None
        return CatalogState(
            item_classes=self.item_classes,
            raw_features=self.raw_features,
            features=self.features,
            clean_scores=self.clean_scores.get(key),
            clean_top_n=self.clean_top_n.get(key),
        )

    def pipelines(
        self, names: Sequence[str], cutoff: int
    ) -> Dict[str, TAaMRPipeline]:
        """One warm-started pipeline per named recommender."""
        return {
            name: TAaMRPipeline(
                self.dataset,
                self.extractor,
                self.recommender(name),
                cutoff=cutoff,
                precomputed=self.catalog_state(name),
            )
            for name in names
        }


# --------------------------------------------------------------------- #
# Stage implementations: build / unpack
# --------------------------------------------------------------------- #


def _build_dataset(results: StageResults) -> Payload:
    config = results.config
    builder = amazon_men_like if config.dataset == "amazon_men_like" else amazon_women_like
    return pack_dataset(
        builder(scale=config.scale, image_size=config.image_size, seed=config.seed)
    )


def _unpack_dataset(results: StageResults, arrays, meta) -> MultimediaDataset:
    return unpack_dataset(arrays, meta)


def _make_classifier(
    config: ExperimentConfig, dataset: MultimediaDataset, seed: int
) -> TinyResNet:
    return TinyResNet(
        num_classes=dataset.num_categories,
        widths=config.classifier_widths,
        blocks_per_stage=config.classifier_blocks,
        seed=seed,
    )


def _train_classifier(
    config: ExperimentConfig, dataset: MultimediaDataset, seed: int
) -> Tuple[TinyResNet, float]:
    """A freshly trained catalog classifier and its final train accuracy."""
    classifier = _make_classifier(config, dataset, seed)
    trainer = ClassifierTrainer(
        classifier,
        ClassifierConfig(
            epochs=config.classifier_epochs,
            batch_size=config.classifier_batch_size,
            learning_rate=config.classifier_lr,
            seed=seed,
        ),
    )
    report = trainer.fit(dataset.images, dataset.item_categories)
    return classifier, float(report.final_train_accuracy)


def _load_classifier(
    config: ExperimentConfig,
    dataset: MultimediaDataset,
    seed: int,
    state: Dict[str, np.ndarray],
) -> TinyResNet:
    classifier = _make_classifier(config, dataset, seed)
    classifier.load_state_dict(state)
    classifier.eval()
    return classifier


def _classifier(seed: int, record_accuracy: bool = False) -> Tuple[Callable, Callable]:
    """A catalog classifier node trained with ``seed``.

    The ``classifier`` stage records its train accuracy (into
    ``results.classifier_accuracy``); the matrix's TRANSFER surrogate,
    an independently seeded copy, does not.
    """

    def build(results: StageResults) -> Payload:
        classifier, accuracy = _train_classifier(results.config, results.dataset, seed)
        return classifier.state_dict(), {"accuracy": accuracy} if record_accuracy else {}

    def unpack(results: StageResults, arrays, meta) -> TinyResNet:
        if "accuracy" in meta:
            results.classifier_accuracy = float(meta["accuracy"])
        return _load_classifier(results.config, results.dataset, seed, arrays)

    return build, unpack


def _catalog_features(
    classifier: TinyResNet, images: np.ndarray
) -> Tuple[FeatureExtractor, np.ndarray, np.ndarray]:
    """One catalog pass: fitted extractor, raw features, classes."""
    extractor = FeatureExtractor(classifier)
    classes, raw = classifier.predict_with_features(images, batch_size=extractor.batch_size)
    raw = np.asarray(raw, dtype=np.float64)
    extractor.fit_from_raw(raw)
    return extractor, raw, np.asarray(classes, dtype=np.int64)


def _load_catalog_features(
    classifier: TinyResNet, normalization: Dict[str, np.ndarray], raw: np.ndarray
) -> Tuple[FeatureExtractor, np.ndarray, np.ndarray]:
    """The stored side of :func:`_catalog_features`: extractor, raw, standardized."""
    extractor = FeatureExtractor(classifier)
    extractor.load_normalization_state(normalization)
    raw = np.asarray(raw, dtype=np.float64)
    return extractor, raw, extractor.transform_raw_features(raw)


def _build_features(results: StageResults) -> Payload:
    extractor, raw, classes = _catalog_features(results.classifier, results.dataset.images)
    return {"raw_features": raw, "item_classes": classes, **extractor.normalization_state()}, {}


def _unpack_features(results: StageResults, arrays, meta) -> None:
    results.extractor, results.raw_features, results.features = _load_catalog_features(
        results.classifier,
        {key: arrays[key] for key in ("mean", "scale") if key in arrays},
        arrays["raw_features"],
    )
    results.item_classes = np.asarray(arrays["item_classes"], dtype=np.int64)


def _make_vbpr(
    config: ExperimentConfig, dataset: MultimediaDataset, features: np.ndarray
) -> VBPR:
    return VBPR(
        dataset.num_users,
        dataset.num_items,
        features,
        VBPRConfig(epochs=config.recommender_epochs, seed=config.seed),
    )


def _make_amr(
    config: ExperimentConfig, dataset: MultimediaDataset, features: np.ndarray
) -> AMR:
    return AMR(
        dataset.num_users,
        dataset.num_items,
        features,
        AMRConfig(
            epochs=config.recommender_epochs,
            pretrain_epochs=config.amr_pretrain_epochs,
            gamma=config.amr_gamma,
            eta=config.amr_eta,
            seed=config.seed,
        ),
    )


def _fitted(make: Callable[[StageResults], Any]) -> Tuple[Callable, Callable]:
    """A recommender node: ``make(results)`` fit on the feedback, or loaded."""

    def build(results: StageResults) -> Payload:
        return make(results).fit(results.dataset.feedback).state_dict(), {}

    def unpack(results: StageResults, arrays, meta):
        return make(results).load_state_dict(arrays)

    return build, unpack


def _build_clean_scores(results: StageResults) -> Payload:
    cutoff = min(results.config.cutoff, results.dataset.num_items)
    arrays = {}
    for name in RECOMMENDER_NAMES:
        model = results.recommender(name)
        scores = model.score_all(features=results.features)
        arrays[f"{name.lower()}_scores"] = scores
        arrays[f"{name.lower()}_top_n"] = model.top_n(
            cutoff, feedback=results.dataset.feedback, scores=scores
        )
    return arrays, {"cutoff": results.config.cutoff}


def _unpack_clean_scores(results: StageResults, arrays, meta) -> None:
    for name in RECOMMENDER_NAMES:
        results.clean_scores[name] = np.asarray(
            arrays[f"{name.lower()}_scores"], dtype=np.float64
        )
        results.clean_top_n[name] = np.asarray(
            arrays[f"{name.lower()}_top_n"], dtype=np.int64
        )


def _build_attack_grid(results: StageResults) -> Payload:
    config = results.config
    attacks = GRID_ATTACK_NAMES
    classifier, classes = results.classifier, results.item_classes
    pipelines = results.pipelines(RECOMMENDER_NAMES, config.cutoff)
    column = Column(
        {name: Craft(classifier, name, classes) for name in attacks},
        classes,
        row_measures(
            pipeline_measures(pipelines),
            partial(_grid_row, ladder_mode=config.ladder_mode),
        ),
    )
    [(row_lists, _)] = grid_outcomes(
        [column],
        results.dataset,
        paper_scenarios(results.dataset.name, results.dataset.registry),
        config.epsilons_255,
        config.pgd_steps,
        config.seed,
        config.ladder_mode,
    )
    rows = [
        row
        for name in RECOMMENDER_NAMES
        for row in grid_order(row_lists, attacks, name)
    ]
    return {}, {"rows": rows}


def _unpack_attack_grid(results: StageResults, arrays, meta) -> None:
    results.grid_rows = list(meta["rows"])


def attack_stats_from_rows(
    rows: Sequence[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """Aggregate per-cell attack accounting for the run manifest.

    Sums are over stored grid rows, so shared ladder passes (attributed
    fractionally per cell) appear once per recommender row — the figure
    answers "what did producing these rows cost", not "how many passes
    did the engine run".  ``success_rates`` is each attack's mean
    targeted success rate over its rows.
    """
    if not rows:
        return None
    by_attack: Dict[str, List[float]] = {}
    for row in rows:
        by_attack.setdefault(str(row["attack"]), []).append(float(row["success_rate"]))
    stats: Dict[str, Any] = {
        "cells": len(rows),
        "attack_iterations": int(sum(int(r.get("attack_iterations", 0)) for r in rows)),
        "attack_forwards": float(sum(float(r.get("attack_forwards", 0.0)) for r in rows)),
        "attack_backwards": float(
            sum(float(r.get("attack_backwards", 0.0)) for r in rows)
        ),
        "early_exited_images": int(sum(int(r.get("early_exited", 0)) for r in rows)),
        "success_rates": {
            attack: float(np.mean(rates)) for attack, rates in sorted(by_attack.items())
        },
    }
    modes = sorted({str(r["ladder_mode"]) for r in rows if r.get("ladder_mode")})
    if modes:
        stats["ladder_mode"] = modes[0] if len(modes) == 1 else modes
    return stats


def _build_tables(results: StageResults) -> Payload:
    rows, epsilons = results.grid_rows, results.config.epsilons_255
    sections = [format_table2(rows, epsilons)]
    if rows:
        sections.append(format_table3(rows, epsilons))
        sections.append(format_table4(rows, epsilons))
    return {}, {"text": "\n\n".join(sections)}


def _unpack_tables(results: StageResults, arrays, meta) -> None:
    results.tables_text = str(meta["text"])


# --------------------------------------------------------------------- #
# Stage declarations
# --------------------------------------------------------------------- #


def stage_nodes(config: ExperimentConfig) -> List[Node]:
    """The eight stages in execution order.

    Each ``stage(name, deps, config_fields, build, unpack)`` call
    declares the upstream stages a stage consumes and the config fields
    its build/unpack functions read — lint rule RPR003 checks the two
    agree, since a field read but not declared would let a config edit
    serve a stale artifact.
    """

    def stage(name, deps, config_fields, build, unpack) -> Node:
        payload = config.field_fingerprint(config_fields)
        return Node(name, f"stage_{name}", {dep: dep for dep in deps}, payload, build, unpack)

    return [
        stage(
            "dataset",
            (),
            ("dataset", "scale", "image_size", "seed"),
            _build_dataset,
            _unpack_dataset,
        ),
        stage(
            "classifier",
            ("dataset",),
            (
                "classifier_widths",
                "classifier_blocks",
                "classifier_epochs",
                "classifier_lr",
                "classifier_batch_size",
                "seed",
            ),
            *_classifier(config.seed, record_accuracy=True),
        ),
        stage("features", ("dataset", "classifier"), (), _build_features, _unpack_features),
        stage(
            "vbpr",
            ("dataset", "features"),
            ("recommender_epochs", "seed"),
            *_fitted(
                lambda results: _make_vbpr(results.config, results.dataset, results.features)
            ),
        ),
        stage(
            "amr",
            ("dataset", "features"),
            ("recommender_epochs", "amr_pretrain_epochs", "amr_gamma", "amr_eta", "seed"),
            *_fitted(
                lambda results: _make_amr(results.config, results.dataset, results.features)
            ),
        ),
        stage(
            "clean_scores",
            ("dataset", "features", "vbpr", "amr"),
            ("cutoff",),
            _build_clean_scores,
            _unpack_clean_scores,
        ),
        stage(
            "attack_grid",
            ("dataset", "classifier", "features", "vbpr", "amr", "clean_scores"),
            ("epsilons_255", "pgd_steps", "cutoff", "seed", "ladder_mode"),
            _build_attack_grid,
            _unpack_attack_grid,
        ),
        stage("tables", ("attack_grid",), ("epsilons_255",), _build_tables, _unpack_tables),
    ]


STAGE_ORDER: Tuple[str, ...] = tuple(node.name for node in stage_nodes(ExperimentConfig()))


def stage_fingerprints(config: ExperimentConfig) -> Dict[str, str]:
    """Per-stage fingerprints: own config fields + upstream fingerprints."""
    return node_fingerprints(stage_nodes(config))


def stage_closure(stages: Sequence[str]) -> List[str]:
    """The requested stages plus every transitive dependency, topo-ordered."""
    return [node.name for node in node_closure(stage_nodes(ExperimentConfig()), stages)]


# --------------------------------------------------------------------- #
# The executor: load-verify-or-build, for every node
# --------------------------------------------------------------------- #


class NodeExecutor:
    """Load-verify-or-build for one run over one store.

    A node loads when the store holds an artifact under its fingerprint
    that was built from the upstream content this run holds: the
    recorded ``__inputs__`` must equal :attr:`hashes` (node name →
    content hash) for every dependency.  Otherwise it builds and is
    stored with those inputs, on disk or in memory alike, and
    downstream nodes chain off its content hash.  :attr:`outcomes`
    records each node's hit or build, in order.

    ``force`` names nodes that must rebuild even when a valid artifact
    exists.  It must name stored nodes of ``nodes`` — the run's plan,
    what ``--explain`` lists — or ``ValueError`` reports the unknown
    ``what``.
    """

    def __init__(
        self,
        store: Store,
        fingerprints: Dict[str, str],
        nodes: Sequence[Node],
        force: Sequence[str],
        what: str,
        verbose: bool = False,
    ) -> None:
        self.forced = set(force or ())
        unknown = self.forced.difference(node.name for node in nodes if node.kind)
        if unknown:
            raise ValueError(f"unknown {what} in force={sorted(unknown)}")
        self.store = store
        self.fingerprints = fingerprints
        self.verbose = verbose
        self.hashes: Dict[str, str] = {}
        self.outcomes: List[StageOutcome] = []
        self._reasons: Dict[str, str] = {}

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[repro] {message}", flush=True)

    def run(self, nodes: Sequence[Node], results: StageResults) -> None:
        """Load or build each node in order; file its value in ``results.values``."""
        for node in nodes:
            fingerprint = self.fingerprints[node.name]
            layer = node.kind.partition("_")[0]  # "stage" or "matrix"
            with span(f"{layer}.{node.name}", fingerprint=fingerprint) as node_span:
                watch = Stopwatch()
                loaded = self.load_node(node)
                if loaded is None:
                    arrays, meta = node.build(results)
                    self.save_node(node, arrays, meta, seconds=0.0)
                else:
                    arrays, meta = loaded.arrays, loaded.meta
                results.values[node.name] = node.unpack(results, arrays, meta)
                # The node's time covers loading or building, storing and unpacking.
                outcome = self.outcomes[-1]
                outcome.seconds = watch.elapsed()
                node_span.set_attrs(action=outcome.action, reason=outcome.reason)

    def load_node(self, node: Node) -> Optional[LoadedArtifact]:
        """``node``'s artifact if it is still valid for this run, recorded as a hit.

        A miss returns ``None`` and keeps the reason for
        :meth:`save_node`: ``forced rebuild``, ``no stored artifact``, or
        ``refused stored artifact: …`` for a corrupt or stale one.
        """
        fingerprint = self.fingerprints[node.name]
        if node.name in self.forced:
            self._reasons[node.name] = "forced rebuild"
            return None
        watch = Stopwatch()
        try:
            loaded = self.store.load(node.kind, fingerprint, schema_version=SCHEMA_VERSION)
            recorded = loaded.meta.get("__inputs__", {})
            stale = sorted(
                dep for dep in node.deps.values() if recorded.get(dep) != self.hashes.get(dep)
            )
            if stale:
                raise ArtifactError(f"inputs changed since the artifact was built: {stale}")
        except ArtifactError as error:
            self._reasons[node.name] = (
                "no stored artifact"
                if isinstance(error, FileNotFoundError)
                else f"refused stored artifact: {error}"
            )
            return None
        digest = loaded.ref.content_hash
        self.hashes[node.name] = digest
        self.outcomes.append(
            StageOutcome(node.name, fingerprint, "hit", watch.elapsed(), digest, loaded.ref.path)
        )
        self._log(f"{node.name}: loaded from store ({fingerprint})")
        return loaded

    def save_node(
        self,
        node: Node,
        arrays: Dict[str, np.ndarray],
        meta: Dict[str, Any],
        seconds: float,
    ) -> None:
        """Store a node :meth:`load_node` missed, with the ``__inputs__`` it was built from."""
        fingerprint = self.fingerprints[node.name]
        reason = self._reasons.pop(node.name)
        meta = {**meta, "__inputs__": {dep: self.hashes[dep] for dep in node.deps.values()}}
        ref = self.store.save(
            node.kind, fingerprint, arrays, schema_version=SCHEMA_VERSION, meta=meta
        )
        self.hashes[node.name] = ref.content_hash
        self.outcomes.append(
            StageOutcome(
                node.name, fingerprint, "built", seconds, ref.content_hash, ref.path, reason
            )
        )
        self._log(f"{node.name}: built ({reason})")


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #


@dataclass
class StagePlan:
    """One row of an ``--explain`` plan."""

    name: str
    fingerprint: str
    cached: bool
    would: str  # "load" | "build"

    @classmethod
    def of(
        cls, store: Store, nodes: Sequence[Node], fingerprints: Dict[str, str]
    ) -> List["StagePlan"]:
        """The plan of each stored node: load if ``store`` holds its artifact, else build."""
        plans = []
        for node in nodes:
            if node.kind:
                fingerprint = fingerprints[node.name]
                cached = store.exists(node.kind, fingerprint)
                plans.append(cls(node.name, fingerprint, cached, "load" if cached else "build"))
        return plans


class StageRunner:
    """Execute (a sub-DAG of) the experiment stages against a store.

    Parameters
    ----------
    config:
        The experiment configuration; each stage fingerprints only the
        fields it declares.
    store:
        An :class:`ArtifactStore` or :class:`MemoryArtifactStore`; by
        default a fresh memory store, which keeps this runner's
        artifacts for its own lifetime only.
    verbose:
        Print one line per stage action.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        store: Optional[Store] = None,
        verbose: bool = False,
    ) -> None:
        self.config = config
        self.store = store or MemoryArtifactStore()
        self.verbose = verbose
        self.nodes = stage_nodes(config)
        self.fingerprints = node_fingerprints(self.nodes)

    def _closure(self, stages: Optional[Sequence[str]]) -> List[Node]:
        return node_closure(self.nodes, list(stages) if stages else list(STAGE_ORDER))

    def plan(self, stages: Optional[Sequence[str]] = None) -> List[StagePlan]:
        """What :meth:`run` would do, without executing anything."""
        return StagePlan.of(self.store, self._closure(stages), self.fingerprints)

    def run(
        self,
        stages: Optional[Sequence[str]] = None,
        force: Sequence[str] = (),
    ) -> Tuple[StageResults, RunManifest]:
        """Run the closure of ``stages`` (default: the whole DAG).

        ``force`` names stages of that closure that must rebuild even
        when a valid artifact exists; their downstream consumers still
        load as long as the rebuilt content hashes match the recorded
        inputs (true for deterministic, seeded stages).
        """
        nodes = self._closure(stages)
        executor = NodeExecutor(
            self.store, self.fingerprints, nodes, force, "stages", self.verbose
        )
        results = StageResults(config=self.config)
        executor.run(nodes, results)
        manifest = RunManifest(
            config_key=self.config.cache_key(),
            config=asdict(self.config),
            store_root=self.store.root,
            stages=executor.outcomes,
            attack_stats=attack_stats_from_rows(results.grid_rows),
        )
        return results, manifest


#: The store :func:`build_context` runs against without a ``cache_dir``:
#: one per process, so a second context of one config builds nothing.
PROCESS_STORE = MemoryArtifactStore()


def build_context(
    config: ExperimentConfig, cache_dir: Optional[str] = None, verbose: bool = False
) -> StageResults:
    """The results of the training sub-graph (``dataset`` … ``vbpr``/``amr``).

    Runs against the artifact store rooted at ``cache_dir``, or else
    against :data:`PROCESS_STORE`; the run's manifest is attached as
    ``context.manifest``.
    """
    store = ArtifactStore(cache_dir) if cache_dir else PROCESS_STORE
    results, manifest = StageRunner(config, store, verbose).run(stages=("vbpr", "amr"))
    results.manifest = manifest
    return results


def format_plan(plans: Sequence[StagePlan]) -> str:
    """Human-readable ``--explain`` table."""
    lines = [f"{'stage':14s} {'fingerprint':18s} {'status':8s} action"]
    for plan in plans:
        status = "cached" if plan.cached else "missing"
        lines.append(f"{plan.name:14s} {plan.fingerprint:18s} {status:8s} {plan.would}")
    return "\n".join(lines)


def format_manifest(manifest: RunManifest) -> str:
    """Human-readable run summary (the JSON manifest's sibling)."""
    lines = [
        f"run manifest — config {manifest.config_key}"
        + (f" (store: {manifest.store_root})" if manifest.store_root else " (in memory)")
    ]
    width = max([14] + [len(outcome.name) for outcome in manifest.stages])
    lines.append(f"{'stage':{width}s} {'action':7s} {'seconds':>9s}  artifact")
    for outcome in manifest.stages:
        digest = (outcome.content_hash or "")[:12]
        suffix = f"  [{outcome.reason}]" if outcome.reason and outcome.action == "built" else ""
        lines.append(
            f"{outcome.name:{width}s} {outcome.action:7s} {outcome.seconds:9.3f}  {digest}{suffix}"
        )
    hits, built = len(manifest.cache_hits), len(manifest.built)
    lines.append(
        f"total {manifest.total_seconds:.3f}s — {hits} cache hit(s), {built} built"
    )
    if manifest.attack_stats:
        stats = manifest.attack_stats
        mode = stats.get("ladder_mode")
        lines.append(
            f"attack grid: {stats['cells']} cells, "
            f"{stats['attack_forwards']:.0f} fwd / {stats['attack_backwards']:.0f} bwd "
            f"image-passes, {stats['early_exited_images']} early exit(s)"
            + (f" [ladder {mode}]" if mode else "")
        )
        for attack, rate in stats["success_rates"].items():
            lines.append(f"  mean success [{attack}]: {rate:.3f}")
    for defense, skipped in sorted(manifest.skipped_scenarios.items()):
        lines.append(f"  skipped under {defense}: {', '.join(skipped)}")
    return "\n".join(lines)
