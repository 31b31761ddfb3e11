"""Ingest-path feature screening — the serving face of the detector.

The scenario matrix's ``detector`` defense quarantines adversarial
catalog entries offline; :class:`FeatureScreen` pushes the same
:class:`~repro.defenses.detector.ReconstructionDetector` into the
*serving* ingest path.  Installed on a
:class:`~repro.serving.sharded.router.ShardRouter` (``screen=`` of
:meth:`~repro.serving.sharded.router.ShardedService.build`), it
inspects every feature push **before** the scorer patch and cache
invalidation: flagged items are quarantined — their previously served
features stay live and no cached list is invalidated on their behalf —
while clean items pass through unchanged.

Screening happens in feature space because that is where adversarial
perturbations are loud: a small-ε pixel change barely moves pixel-space
reconstruction error but throws the extracted feature vector far off
the clean catalog's low-rank manifold (see ``repro.defenses.detector``).
It is also the only space the sharded tier has — the router fans out
feature vectors, never pixels.

Every screening decision is counted (``serving.screen.flagged`` /
``serving.screen.passed`` metrics, a ``serving.screen`` span), so the
detection rate and false-positive rate of a deployment are first-class
telemetry rather than an offline estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..defenses.detector import ReconstructionDetector
from ..telemetry import active_metrics, span


@dataclass
class ScreenReport:
    """Verdict of one screened feature push."""

    item_ids: np.ndarray  # every item of the push, request order
    flagged: np.ndarray  # bool mask aligned with item_ids
    scores: np.ndarray  # reconstruction errors aligned with item_ids
    threshold: float

    @property
    def passed_item_ids(self) -> np.ndarray:
        return self.item_ids[~self.flagged]

    @property
    def quarantined_item_ids(self) -> np.ndarray:
        return self.item_ids[self.flagged]

    @property
    def num_flagged(self) -> int:
        return int(self.flagged.sum())

    @property
    def num_passed(self) -> int:
        return int(self.item_ids.size - self.num_flagged)

    @property
    def flag_rate(self) -> float:
        """Flagged fraction of the push (detection rate on attacked pushes,
        false-positive rate on clean ones)."""
        if self.item_ids.size == 0:
            return 0.0
        return self.num_flagged / self.item_ids.size


class FeatureScreen:
    """Reconstruction-detector gate for the feature-push ingest path.

    Wraps a fitted *and calibrated*
    :class:`~repro.defenses.detector.ReconstructionDetector`; use
    :meth:`fit` to build both in one call from the clean catalog
    features the recommender serves with.
    """

    def __init__(self, detector: ReconstructionDetector) -> None:
        if not detector.is_fitted:
            raise ValueError("detector must be fitted before screening")
        if detector.threshold is None:
            raise ValueError("detector must be calibrated (no threshold set)")
        self.detector = detector

    @classmethod
    def fit(
        cls,
        clean_features: np.ndarray,
        num_components: int = 8,
        target_fpr: float = 0.05,
    ) -> "FeatureScreen":
        """Fit + calibrate on the clean catalog in one step."""
        detector = ReconstructionDetector(num_components=num_components)
        detector.fit(clean_features)
        detector.calibrate(clean_features, target_fpr=target_fpr)
        return cls(detector)

    @property
    def threshold(self) -> float:
        assert self.detector.threshold is not None
        return float(self.detector.threshold)

    def screen(self, item_ids, features: np.ndarray) -> ScreenReport:
        """Score one push; returns the quarantine verdict (no mutation).

        The caller (service or router) decides what quarantine means —
        here we only score, flag, and count.
        """
        item_ids = np.atleast_1d(np.asarray(item_ids, dtype=np.int64))
        features = np.asarray(features)
        if features.shape[0] != item_ids.shape[0]:
            raise ValueError(
                "features must align with item_ids: "
                f"{features.shape[0]} rows for {item_ids.shape[0]} items"
            )
        with span("serving.screen", items=int(item_ids.size)) as screen_span:
            scores = self.detector.score(features)
            flagged = scores > self.threshold
            report = ScreenReport(
                item_ids=item_ids,
                flagged=flagged,
                scores=scores,
                threshold=self.threshold,
            )
            screen_span.set_attrs(flagged=report.num_flagged)
            registry = active_metrics()
            if registry is not None:
                registry.counter("serving.screen.flagged").inc(report.num_flagged)
                registry.counter("serving.screen.passed").inc(report.num_passed)
        return report
