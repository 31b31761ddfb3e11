"""Explicit experiment stage DAG with selective invalidation.

The paper's Fig. 1 pipeline is an acyclic chain of expensive stages::

    dataset ─→ classifier ─→ features ─┬─→ vbpr ─┬─→ clean_scores ─→ attack_grid ─→ tables
                                       └─→ amr ──┘

Each :class:`StageSpec` declares the upstream stages it consumes and the
:class:`~repro.experiments.config.ExperimentConfig` fields it actually
reads.  A stage's *fingerprint* hashes exactly those two things, so:

* editing ``epsilons_255`` re-fingerprints only ``attack_grid`` and
  ``tables`` — dataset, classifier, features and both recommenders load
  from the :class:`~repro.artifacts.ArtifactStore` untouched;
* changing ``cutoff`` re-runs scoring and the grid but never retrains;
* swapping ``classifier_epochs`` invalidates everything downstream of
  the classifier, as it must.

Every artifact additionally records the *content hashes* of the inputs
it was built from; :func:`load_node` verifies them on load and the
runner rebuilds instead of silently consuming a stale chain.  The
scenario matrix (:mod:`repro.experiments.matrix`) stores its nodes
through the same :func:`load_node` / :func:`save_node` pair.  A run emits a
:class:`RunManifest` — per-stage fingerprints, artifact hashes,
hit/built actions and wall-clock timings — the JSON trail behind
``python -m repro run``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..artifacts import (
    ArtifactError,
    ArtifactStore,
    LoadedArtifact,
    content_hash,
    write_json,
)
from ..core import CatalogState, TAaMRPipeline, VisualQuality, paper_scenarios
from ..core.scenarios import AttackScenario
from ..data import MultimediaDataset, amazon_men_like, amazon_women_like
from ..data.serialization import pack_dataset, unpack_dataset
from ..features import ClassifierConfig, ClassifierTrainer, FeatureExtractor
from ..nn import TinyResNet
from ..recommenders import AMR, AMRConfig, VBPR, VBPRConfig
from ..telemetry import Stopwatch, span
from .config import ExperimentConfig

RECOMMENDER_NAMES = ("VBPR", "AMR")


# --------------------------------------------------------------------- #
# Stage declarations
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StageSpec:
    """One node of the DAG: dependencies + the config fields it reads."""

    name: str
    deps: Tuple[str, ...]
    config_fields: Tuple[str, ...]
    schema_version: int = 1

    @property
    def kind(self) -> str:
        return f"stage_{self.name}"


STAGE_SPECS: Tuple[StageSpec, ...] = (
    StageSpec("dataset", (), ("dataset", "scale", "image_size", "seed")),
    StageSpec(
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
    ),
    StageSpec("features", ("dataset", "classifier"), ()),
    StageSpec("vbpr", ("dataset", "features"), ("recommender_epochs", "seed")),
    StageSpec(
        "amr",
        ("dataset", "features"),
        ("recommender_epochs", "amr_pretrain_epochs", "amr_gamma", "amr_eta", "seed"),
    ),
    StageSpec("clean_scores", ("dataset", "features", "vbpr", "amr"), ("cutoff",)),
    StageSpec(
        "attack_grid",
        ("dataset", "classifier", "features", "vbpr", "amr", "clean_scores"),
        ("epsilons_255", "pgd_steps", "cutoff", "seed", "ladder_mode"),
    ),
    StageSpec("tables", ("attack_grid",), ("epsilons_255",)),
)

STAGE_ORDER: Tuple[str, ...] = tuple(spec.name for spec in STAGE_SPECS)
_SPEC_BY_NAME: Dict[str, StageSpec] = {spec.name: spec for spec in STAGE_SPECS}


def chained_fingerprint(
    name: str,
    schema_version: int,
    config_payload: Dict[str, Any],
    dep_fingerprints: Dict[str, str],
) -> str:
    """One node's fingerprint: its own config + upstream fingerprints.

    The single hashing convention of the DAG — static stages and the
    dynamic scenario-matrix cells (:mod:`repro.experiments.matrix`)
    both chain through it, so invalidation semantics cannot diverge
    between the two layers.
    """
    payload = {
        "stage": name,
        "schema": schema_version,
        "config": config_payload,
        "deps": dict(dep_fingerprints),
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def stage_fingerprints(config: ExperimentConfig) -> Dict[str, str]:
    """Per-stage fingerprints: own config fields + upstream fingerprints.

    Purely config-derived (no artifact needed), so plans and
    ``--explain`` work before anything has ever been built.
    """
    fingerprints: Dict[str, str] = {}
    for spec in STAGE_SPECS:
        fingerprints[spec.name] = chained_fingerprint(
            spec.name,
            spec.schema_version,
            config.field_fingerprint(spec.config_fields),
            {dep: fingerprints[dep] for dep in spec.deps},
        )
    return fingerprints


def stage_closure(stages: Sequence[str]) -> List[str]:
    """The requested stages plus every transitive dependency, topo-ordered."""
    unknown = [name for name in stages if name not in _SPEC_BY_NAME]
    if unknown:
        raise ValueError(f"unknown stages {unknown}; available: {list(STAGE_ORDER)}")
    needed = set()

    def visit(name: str) -> None:
        if name in needed:
            return
        needed.add(name)
        for dep in _SPEC_BY_NAME[name].deps:
            visit(dep)

    for name in stages:
        visit(name)
    return [name for name in STAGE_ORDER if name in needed]


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
    """The provenance record of one ``StageRunner.run`` invocation."""

    config_key: str
    config: Dict[str, Any]
    store_root: Optional[str]
    stages: List[StageOutcome] = field(default_factory=list)
    #: Telemetry report (metrics snapshot / hot-op table) when the run
    #: was executed inside a telemetry session; absent otherwise.
    telemetry: Optional[Dict[str, Any]] = None
    #: Aggregated attack-execution accounting (iterations, forward /
    #: backward image-passes, early exits) when the run touched the
    #: attack grid; absent otherwise.
    attack_stats: Optional[Dict[str, Any]] = None

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
        payload = {
            "manifest_version": 1,
            "config_key": self.config_key,
            "config": self.config,
            "store_root": self.store_root,
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
            "built": self.built,
            "stages": [outcome.as_dict() for outcome in self.stages],
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        if self.attack_stats is not None:
            payload["attack_stats"] = self.attack_stats
        return payload

    def save(self, path: str) -> None:
        write_json(path, self.as_dict())


# --------------------------------------------------------------------- #
# Stage results (the in-memory side of a run)
# --------------------------------------------------------------------- #


@dataclass
class StageResults:
    """Deserialized outputs of every stage touched by a run."""

    config: ExperimentConfig
    dataset: Optional[MultimediaDataset] = None
    classifier: Optional[TinyResNet] = None
    classifier_accuracy: Optional[float] = None
    extractor: Optional[FeatureExtractor] = None
    raw_features: Optional[np.ndarray] = field(default=None, repr=False)
    features: Optional[np.ndarray] = field(default=None, repr=False)
    item_classes: Optional[np.ndarray] = field(default=None, repr=False)
    vbpr: Optional[VBPR] = None
    amr: Optional[AMR] = None
    clean_scores: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    clean_top_n: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    grid_rows: List[Dict[str, Any]] = field(default_factory=list, repr=False)
    tables_text: Optional[str] = None
    #: The run's provenance record; :func:`build_context` attaches it.
    manifest: Optional[RunManifest] = field(default=None, repr=False)

    def recommender(self, name: str) -> VBPR:
        key = name.strip().upper()
        if key == "VBPR" and self.vbpr is not None:
            return self.vbpr
        if key == "AMR" and self.amr is not None:
            return self.amr
        raise KeyError(f"recommender '{name}' is not part of these results")

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
# Stage implementations: build / pack / unpack
# --------------------------------------------------------------------- #


def _build_dataset(results: StageResults) -> None:
    config = results.config
    builder = amazon_men_like if config.dataset == "amazon_men_like" else amazon_women_like
    results.dataset = builder(
        scale=config.scale, image_size=config.image_size, seed=config.seed
    )


def _pack_dataset(results: StageResults):
    return pack_dataset(results.dataset)


def _unpack_dataset(results: StageResults, arrays, meta) -> None:
    results.dataset = unpack_dataset(arrays, meta)


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


def _build_classifier(results: StageResults) -> None:
    results.classifier, results.classifier_accuracy = _train_classifier(
        results.config, results.dataset, results.config.seed
    )


def _pack_classifier(results: StageResults):
    return results.classifier.state_dict(), {"accuracy": results.classifier_accuracy}


def _unpack_classifier(results: StageResults, arrays, meta) -> None:
    results.classifier = _load_classifier(
        results.config, results.dataset, results.config.seed, arrays
    )
    accuracy = meta.get("accuracy")
    results.classifier_accuracy = None if accuracy is None else float(accuracy)


def _catalog_features(
    classifier: TinyResNet, images: np.ndarray
) -> Tuple[FeatureExtractor, np.ndarray, np.ndarray, np.ndarray]:
    """One catalog pass: fitted extractor, raw and standardized features, classes."""
    extractor = FeatureExtractor(classifier)
    classes, raw = classifier.predict_with_features(images, batch_size=extractor.batch_size)
    raw = np.asarray(raw, dtype=np.float64)
    extractor.fit_from_raw(raw)
    return (
        extractor,
        raw,
        extractor.transform_raw_features(raw),
        np.asarray(classes, dtype=np.int64),
    )


def _load_catalog_features(
    classifier: TinyResNet, normalization: Dict[str, np.ndarray], raw: np.ndarray
) -> Tuple[FeatureExtractor, np.ndarray, np.ndarray]:
    """The stored side of :func:`_catalog_features`: extractor, raw, standardized."""
    extractor = FeatureExtractor(classifier)
    extractor.load_normalization_state(normalization)
    raw = np.asarray(raw, dtype=np.float64)
    return extractor, raw, extractor.transform_raw_features(raw)


def _build_features(results: StageResults) -> None:
    (
        results.extractor,
        results.raw_features,
        results.features,
        results.item_classes,
    ) = _catalog_features(results.classifier, results.dataset.images)


def _pack_features(results: StageResults):
    arrays = {
        "raw_features": results.raw_features,
        "item_classes": results.item_classes,
    }
    arrays.update(results.extractor.normalization_state())
    return arrays, {}


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


def _build_vbpr(results: StageResults) -> None:
    results.vbpr = _make_vbpr(results.config, results.dataset, results.features).fit(
        results.dataset.feedback
    )


def _pack_vbpr(results: StageResults):
    return results.vbpr.state_dict(), {}


def _unpack_vbpr(results: StageResults, arrays, meta) -> None:
    results.vbpr = _make_vbpr(
        results.config, results.dataset, results.features
    ).load_state_dict(arrays)


def _build_amr(results: StageResults) -> None:
    results.amr = _make_amr(results.config, results.dataset, results.features).fit(
        results.dataset.feedback
    )


def _pack_amr(results: StageResults):
    return results.amr.state_dict(), {}


def _unpack_amr(results: StageResults, arrays, meta) -> None:
    results.amr = _make_amr(
        results.config, results.dataset, results.features
    ).load_state_dict(arrays)


def _build_clean_scores(results: StageResults) -> None:
    cutoff = min(results.config.cutoff, results.dataset.num_items)
    for name in RECOMMENDER_NAMES:
        model = results.recommender(name)
        scores = model.score_all(features=results.features)
        results.clean_scores[name] = scores
        results.clean_top_n[name] = model.top_n(
            cutoff, feedback=results.dataset.feedback, scores=scores
        )


def _pack_clean_scores(results: StageResults):
    arrays = {}
    for name in RECOMMENDER_NAMES:
        arrays[f"{name.lower()}_scores"] = results.clean_scores[name]
        arrays[f"{name.lower()}_top_n"] = results.clean_top_n[name]
    return arrays, {"cutoff": results.config.cutoff}


def _unpack_clean_scores(results: StageResults, arrays, meta) -> None:
    for name in RECOMMENDER_NAMES:
        results.clean_scores[name] = np.asarray(
            arrays[f"{name.lower()}_scores"], dtype=np.float64
        )
        results.clean_top_n[name] = np.asarray(
            arrays[f"{name.lower()}_top_n"], dtype=np.int64
        )


def _grid_row(recommender_name: str, outcome, ladder_mode: str) -> Dict[str, Any]:
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


def _build_attack_grid(results: StageResults) -> None:
    from . import runner  # late import: runner imports this module

    config = results.config
    attacks = runner.GRID_ATTACK_NAMES
    classifier, classes = results.classifier, results.item_classes
    pipelines = results.pipelines(RECOMMENDER_NAMES, config.cutoff)
    outcomes, _ = runner.grid_outcomes(
        {name: runner.Craft(classifier, name, classes) for name in attacks},
        classes,
        results.dataset,
        paper_scenarios(results.dataset.name, results.dataset.registry),
        runner.pipeline_measures(pipelines),
        config.epsilons_255,
        config.pgd_steps,
        config.seed,
        config.ladder_mode,
    )
    results.grid_rows = [
        _grid_row(name, outcome, config.ladder_mode)
        for name in RECOMMENDER_NAMES
        for outcome in runner.grid_order(outcomes, attacks, name)
    ]


def _pack_attack_grid(results: StageResults):
    return {}, {"rows": results.grid_rows}


def _unpack_attack_grid(results: StageResults, arrays, meta) -> None:
    results.grid_rows = list(meta["rows"])


def attack_stats_from_rows(
    rows: Sequence[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """Aggregate per-cell attack accounting for the run manifest.

    Sums are over stored grid rows, so shared ladder passes (attributed
    fractionally per cell) appear once per recommender row — the figure
    answers "what did producing these rows cost", not "how many passes
    did the engine run".
    """
    if not rows:
        return None
    stats: Dict[str, Any] = {
        "cells": len(rows),
        "attack_iterations": int(sum(int(r.get("attack_iterations", 0)) for r in rows)),
        "attack_forwards": float(sum(float(r.get("attack_forwards", 0.0)) for r in rows)),
        "attack_backwards": float(
            sum(float(r.get("attack_backwards", 0.0)) for r in rows)
        ),
        "early_exited_images": int(sum(int(r.get("early_exited", 0)) for r in rows)),
    }
    modes = sorted({str(r["ladder_mode"]) for r in rows if r.get("ladder_mode")})
    if modes:
        stats["ladder_mode"] = modes[0] if len(modes) == 1 else modes
    return stats


def rows_to_grids(rows: Sequence[Dict[str, Any]]):
    """Rebuild table-formatter-compatible grid shims from stored rows.

    The returned objects satisfy exactly the protocol the
    ``format_table2/3/4`` formatters read (``recommender_name``,
    ``scenarios``, ``cells``), so cached and freshly-built attack grids
    render byte-identical tables.
    """
    from .runner import AttackGrid  # late import; runner imports this module

    grids = []
    for name in sorted({row["recommender"] for row in rows}, key=RECOMMENDER_NAMES.index):
        selected = [row for row in rows if row["recommender"] == name]
        scenarios: List[AttackScenario] = []
        outcomes = []
        for row in selected:
            scenario = AttackScenario(
                source=row["source"],
                target=row["target"],
                semantically_similar=bool(row["semantically_similar"]),
            )
            if scenario not in scenarios:
                scenarios.append(scenario)
            outcomes.append(
                SimpleNamespace(
                    scenario=scenario,
                    attack_name=row["attack"],
                    epsilon_255=float(row["epsilon_255"]),
                    chr_source_before=float(row["chr_source_before"]),
                    chr_target_before=float(row["chr_target_before"]),
                    chr_source_after=float(row["chr_source_after"]),
                    success_rate=float(row["success_rate"]),
                    visual=VisualQuality(
                        psnr=float(row["psnr"]),
                        ssim=float(row["ssim"]),
                        psm=float(row["psm"]),
                    ),
                )
            )
        grids.append(
            AttackGrid(
                recommender_name=name,
                pipeline=None,
                scenarios=scenarios,
                outcomes=outcomes,
            )
        )
    return grids


def _build_tables(results: StageResults) -> None:
    from .runner import format_table2, format_table3, format_table4

    grids = rows_to_grids(results.grid_rows)
    epsilons = results.config.epsilons_255
    sections = [format_table2(grids, epsilons)]
    if grids:
        sections.append(format_table3(grids[:1], epsilons))
        sections.append(format_table4(grids[0], epsilons))
    results.tables_text = "\n\n".join(sections)


def _pack_tables(results: StageResults):
    return {}, {"text": results.tables_text}


def _unpack_tables(results: StageResults, arrays, meta) -> None:
    results.tables_text = str(meta["text"])


_BUILDERS: Dict[str, Callable[[StageResults], None]] = {
    "dataset": _build_dataset,
    "classifier": _build_classifier,
    "features": _build_features,
    "vbpr": _build_vbpr,
    "amr": _build_amr,
    "clean_scores": _build_clean_scores,
    "attack_grid": _build_attack_grid,
    "tables": _build_tables,
}
_PACKERS: Dict[str, Callable[[StageResults], Tuple[Dict[str, np.ndarray], Dict[str, Any]]]] = {
    "dataset": _pack_dataset,
    "classifier": _pack_classifier,
    "features": _pack_features,
    "vbpr": _pack_vbpr,
    "amr": _pack_amr,
    "clean_scores": _pack_clean_scores,
    "attack_grid": _pack_attack_grid,
    "tables": _pack_tables,
}
_UNPACKERS: Dict[str, Callable[[StageResults, Dict[str, np.ndarray], Dict[str, Any]], None]] = {
    "dataset": _unpack_dataset,
    "classifier": _unpack_classifier,
    "features": _unpack_features,
    "vbpr": _unpack_vbpr,
    "amr": _unpack_amr,
    "clean_scores": _unpack_clean_scores,
    "attack_grid": _unpack_attack_grid,
    "tables": _unpack_tables,
}

# --------------------------------------------------------------------- #
# The node protocol: load-verify-or-build, shared with the matrix
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StoredNode:
    """Where one DAG node's artifact lives and which nodes it consumes."""

    name: str
    kind: str
    fingerprint: str
    schema_version: int
    deps: Tuple[str, ...]


def load_node(
    store: Optional[ArtifactStore],
    node: StoredNode,
    hashes: Dict[str, str],
    forced: bool,
) -> Tuple[Optional[LoadedArtifact], Optional[StageOutcome], str]:
    """Load ``node``'s artifact if it is still valid for this run.

    Valid means stored under the node's fingerprint *and* built from the
    upstream content this run holds: the recorded ``__inputs__`` must
    equal ``hashes`` (node name → content hash) for every dependency.
    A hit adds the node's content hash to ``hashes`` and returns the
    artifact with a ``"hit"`` outcome; a miss returns ``(None, None,
    reason)`` so the caller builds and hands the reason to
    :func:`save_node`.
    """
    if forced:
        return None, None, "forced rebuild"
    if store is None:
        return None, None, "no store configured"
    watch = Stopwatch()
    try:
        loaded = store.load(node.kind, node.fingerprint, schema_version=node.schema_version)
        recorded = loaded.meta.get("__inputs__", {})
        stale = sorted(dep for dep in node.deps if recorded.get(dep) != hashes.get(dep))
        if stale:
            raise ArtifactError(f"inputs changed since the artifact was built: {stale}")
    except ArtifactError as error:
        if isinstance(error, FileNotFoundError):
            return None, None, "no stored artifact"
        return None, None, f"refused stored artifact: {error}"
    hashes[node.name] = loaded.ref.content_hash
    outcome = StageOutcome(
        name=node.name,
        fingerprint=node.fingerprint,
        action="hit",
        seconds=watch.elapsed(),
        content_hash=loaded.ref.content_hash,
        path=loaded.ref.path,
    )
    return loaded, outcome, ""


def save_node(
    store: Optional[ArtifactStore],
    node: StoredNode,
    hashes: Dict[str, str],
    arrays: Dict[str, np.ndarray],
    meta: Dict[str, Any],
    seconds: float,
    reason: str,
) -> StageOutcome:
    """Store a freshly built node with the ``__inputs__`` it was built from.

    Without a store the content hash is still computed, so downstream
    nodes chain off it exactly as they would off a stored artifact.
    """
    meta = dict(meta)
    meta["__inputs__"] = {dep: hashes[dep] for dep in node.deps}
    path = None
    if store is not None:
        ref = store.save(
            node.kind,
            node.fingerprint,
            arrays,
            schema_version=node.schema_version,
            meta=meta,
        )
        digest, path = ref.content_hash, ref.path
    else:
        digest = content_hash(arrays, meta)
    hashes[node.name] = digest
    return StageOutcome(
        name=node.name,
        fingerprint=node.fingerprint,
        action="built",
        seconds=seconds,
        content_hash=digest,
        path=path,
        reason=reason,
    )


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
    def probe(
        cls, store: Optional[ArtifactStore], name: str, kind: str, fingerprint: str
    ) -> "StagePlan":
        """The plan of one node: load if ``store`` holds its artifact, else build."""
        cached = bool(store and store.exists(kind, fingerprint))
        return cls(name, fingerprint, cached, "load" if cached else "build")


class StageRunner:
    """Execute (a sub-DAG of) the experiment stages against a store.

    Parameters
    ----------
    config:
        The experiment configuration; each stage fingerprints only the
        fields it declares.
    store:
        Optional :class:`ArtifactStore`.  Without one every requested
        stage builds in memory and nothing persists.
    verbose:
        Print one line per stage action.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        store: Optional[ArtifactStore] = None,
        verbose: bool = False,
    ) -> None:
        self.config = config
        self.store = store
        self.verbose = verbose
        self.fingerprints = stage_fingerprints(config)

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[repro] {message}", flush=True)

    # -- planning ------------------------------------------------------- #
    def plan(self, stages: Optional[Sequence[str]] = None) -> List[StagePlan]:
        """What :meth:`run` would do, without executing anything."""
        return [
            StagePlan.probe(
                self.store, name, _SPEC_BY_NAME[name].kind, self.fingerprints[name]
            )
            for name in stage_closure(list(stages) if stages else list(STAGE_ORDER))
        ]

    # -- execution ------------------------------------------------------ #
    def run(
        self,
        stages: Optional[Sequence[str]] = None,
        force: Sequence[str] = (),
    ) -> Tuple[StageResults, RunManifest]:
        """Run the closure of ``stages`` (default: the whole DAG).

        ``force`` names stages that must rebuild even when a valid
        artifact exists; their downstream consumers still load as long
        as the rebuilt content hashes match the recorded inputs (true
        for deterministic, seeded stages).
        """
        order = stage_closure(list(stages) if stages else list(STAGE_ORDER))
        force_set = set(force or ())
        unknown = force_set.difference(STAGE_ORDER)
        if unknown:
            raise ValueError(f"unknown stages in force={sorted(unknown)}")

        results = StageResults(config=self.config)
        manifest = RunManifest(
            config_key=self.config.cache_key(),
            config=asdict(self.config),
            store_root=self.store.root if self.store else None,
        )
        hashes: Dict[str, str] = {}
        for name in order:
            outcome = self._run_stage(name, results, hashes, forced=name in force_set)
            manifest.stages.append(outcome)
        manifest.attack_stats = attack_stats_from_rows(results.grid_rows)
        return results, manifest

    def _run_stage(
        self,
        name: str,
        results: StageResults,
        hashes: Dict[str, str],
        forced: bool,
    ) -> StageOutcome:
        spec = _SPEC_BY_NAME[name]
        node = StoredNode(
            name=name,
            kind=spec.kind,
            fingerprint=self.fingerprints[name],
            schema_version=spec.schema_version,
            deps=spec.deps,
        )
        with span(f"stage.{name}", fingerprint=node.fingerprint) as stage_span:
            watch = Stopwatch()
            loaded, outcome, reason = load_node(self.store, node, hashes, forced)
            if loaded is not None:
                _UNPACKERS[name](results, loaded.arrays, loaded.meta)
                self._log(f"stage {name}: loaded from store ({node.fingerprint})")
                stage_span.set_attrs(action="hit")
                # A hit's time covers deserializing into the results too.
                return replace(outcome, seconds=watch.elapsed())

            _BUILDERS[name](results)
            arrays, meta = _PACKERS[name](results)
            outcome = save_node(
                self.store, node, hashes, arrays, meta, watch.elapsed(), reason
            )
            self._log(f"stage {name}: built ({reason})")
            stage_span.set_attrs(action="built", reason=reason)
            return outcome


def run_stages(
    config: ExperimentConfig,
    store: Optional[ArtifactStore] = None,
    stages: Optional[Sequence[str]] = None,
    force: Sequence[str] = (),
    verbose: bool = False,
) -> Tuple[StageResults, RunManifest]:
    """One-shot convenience wrapper around :class:`StageRunner`."""
    return StageRunner(config, store=store, verbose=verbose).run(stages=stages, force=force)


#: The trained context benchmarks and examples consume: the results of
#: the training sub-graph, under their historical name.
ExperimentContext = StageResults

_CONTEXT_REGISTRY: Dict[str, StageResults] = {}


def build_context(
    config: ExperimentConfig, cache_dir: Optional[str] = None, verbose: bool = False
) -> StageResults:
    """The results of the training sub-graph (``dataset`` … ``vbpr``/``amr``).

    Runs against the artifact store rooted at ``cache_dir``; the run's
    manifest is attached as ``context.manifest``.  Contexts are cached
    in process by config hash, so the Table II–IV benchmarks share one
    trained system.
    """
    key = config.cache_key()
    if key not in _CONTEXT_REGISTRY:
        store = ArtifactStore(cache_dir) if cache_dir else None
        results, manifest = run_stages(
            config, store=store, stages=("vbpr", "amr"), verbose=verbose
        )
        results.manifest = manifest
        _CONTEXT_REGISTRY[key] = results
    return _CONTEXT_REGISTRY[key]


def clear_context_registry() -> None:
    """Drop all in-process cached contexts (used by tests)."""
    _CONTEXT_REGISTRY.clear()


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
        + (f" (store: {manifest.store_root})" if manifest.store_root else " (no store)")
    ]
    lines.append(f"{'stage':14s} {'action':7s} {'seconds':>9s}  artifact")
    for outcome in manifest.stages:
        digest = (outcome.content_hash or "")[:12]
        suffix = f"  [{outcome.reason}]" if outcome.reason and outcome.action == "built" else ""
        lines.append(
            f"{outcome.name:14s} {outcome.action:7s} {outcome.seconds:9.3f}  {digest}{suffix}"
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
    return "\n".join(lines)
