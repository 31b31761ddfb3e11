"""Trained experiment context — a thin adapter over the stage DAG.

Building a TAaMR experiment means: generate the dataset, train the
classifier, extract features, train VBPR and AMR.  Those steps now live
in the explicit stage DAG of :mod:`repro.experiments.stages`;
:func:`build_context` runs the ``dataset → classifier → features →
{vbpr, amr}`` sub-graph and wraps the results in the historical
:class:`ExperimentContext` shape every benchmark and example consumes.

Caching happens at two levels:

* **in process** — a module-level registry keyed by the config hash, so
  the benchmark files for Tables II, III and IV (which share one trained
  system) build it exactly once per pytest session;
* **on disk** (optional ``cache_dir``) — a content-addressed
  :class:`~repro.artifacts.ArtifactStore`: dataset, classifier weights,
  extracted features (with the extractor's normalization state) and
  recommender parameters each persist as a versioned, fingerprinted
  artifact, so re-running skips *every* stage whose inputs are
  unchanged — including feature extraction, which the old layout
  recomputed on each run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..data import MultimediaDataset
from ..features import FeatureExtractor
from ..nn import TinyResNet
from ..recommenders import AMR, VBPR
from .config import ExperimentConfig

_CONTEXT_REGISTRY: Dict[str, "ExperimentContext"] = {}


@dataclass
class ExperimentContext:
    """Everything a table run needs, fully trained.

    ``classifier_accuracy`` is ``None`` when the classifier was loaded
    from an artifact that did not record its training accuracy — an
    explicit "unknown", not a ``-1.0`` sentinel.
    """

    config: ExperimentConfig
    dataset: MultimediaDataset
    classifier: TinyResNet
    classifier_accuracy: Optional[float]
    extractor: FeatureExtractor
    features: np.ndarray
    vbpr: VBPR
    amr: AMR
    item_classes: Optional[np.ndarray] = field(default=None, repr=False)
    raw_features: Optional[np.ndarray] = field(default=None, repr=False)
    manifest: Optional[object] = field(default=None, repr=False)  # RunManifest

    def recommender(self, name: str) -> VBPR:
        """Look up a model by the names used in the paper's tables."""
        key = name.strip().upper()
        if key == "VBPR":
            return self.vbpr
        if key == "AMR":
            return self.amr
        raise KeyError(f"unknown recommender '{name}' (expected VBPR or AMR)")

    def catalog_state(self):
        """Precomputed :class:`~repro.core.CatalogState` for pipelines."""
        if self.item_classes is None or self.raw_features is None:
            return None
        from ..core import CatalogState

        return CatalogState(
            item_classes=self.item_classes,
            raw_features=self.raw_features,
            features=self.features,
        )


def build_context(
    config: ExperimentConfig, cache_dir: Optional[str] = None, verbose: bool = False
) -> ExperimentContext:
    """Build (or fetch) the trained context for ``config``.

    A thin adapter over :class:`~repro.experiments.stages.StageRunner`:
    runs the training sub-graph (``dataset`` through ``vbpr``/``amr``)
    against the artifact store rooted at ``cache_dir`` and repackages
    the stage results.  The run manifest is attached as
    ``context.manifest`` for provenance.
    """
    key = config.cache_key()
    if key in _CONTEXT_REGISTRY:
        return _CONTEXT_REGISTRY[key]

    from ..artifacts import ArtifactStore
    from .stages import StageRunner

    store = ArtifactStore(cache_dir) if cache_dir else None
    runner = StageRunner(config, store=store, verbose=verbose)
    results, manifest = runner.run(stages=("vbpr", "amr"))

    context = ExperimentContext(
        config=config,
        dataset=results.dataset,
        classifier=results.classifier,
        classifier_accuracy=results.classifier_accuracy,
        extractor=results.extractor,
        features=results.features,
        vbpr=results.vbpr,
        amr=results.amr,
        item_classes=results.item_classes,
        raw_features=results.raw_features,
        manifest=manifest,
    )
    _CONTEXT_REGISTRY[key] = context
    return context


def clear_context_registry() -> None:
    """Drop all in-process cached contexts (used by tests)."""
    _CONTEXT_REGISTRY.clear()
