"""``RecommenderService`` — the online face of a TAaMR experiment.

A one-shard :class:`~repro.serving.sharded.router.ShardedService` on the
in-process backend: the same :class:`~repro.serving.sharded.Shard`,
scorer and router code that serve a multi-process fleet, behind the
request API a single-process caller wants:

* :meth:`recommend` serves one user's top-``n`` (cache hit = a dict
  lookup; miss = one small GEMM + argpartition head);
* :meth:`push_attacked_images` models the attack as deployed systems
  experience it — new images arrive, the extractor re-derives layer-e
  features, the scorer patches the affected columns and the cache drops
  exactly the lists the change can alter — and reports what the push
  did as an :class:`UpdateReport`;
* :attr:`monitor` tracks CHR@N over the last ``window`` *served* lists,
  so the category-exposure shift of Tables II–III shows up as a moving
  signal during the attack instead of a before/after batch number.

The router is built without a MostPop fallback: a scoring error raises
instead of silently degrading the one shard's users.

Build it from a :class:`~repro.core.pipeline.TAaMRPipeline` with
:meth:`RecommenderService.from_pipeline` (shares the pipeline's
classifier-assigned item classes and clean features), or directly from
a fitted recommender for non-visual controls like BPR-MF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.interactions import ImplicitFeedback
from ..features.extractor import FeatureExtractor
from ..recommenders.base import Recommender
from .screen import FeatureScreen, ScreenReport
from .sharded.router import ShardedService


@dataclass
class UpdateReport:
    """What one feature push did to the serving state."""

    item_ids: np.ndarray  # items that actually reached the scorer
    scores_changed: bool  # False for non-visual models (attack-immune)
    cached_users: int  # cache size when the update arrived (0 if none did)
    num_invalidated: int = 0  # cached lists the update dropped
    screened: bool = False  # a FeatureScreen inspected this push
    quarantined_items: List[int] = field(default_factory=list)

    @property
    def num_quarantined(self) -> int:
        return len(self.quarantined_items)


class RecommenderService:
    """Online serving facade over a one-shard in-process fleet.

    ``recommend``, ``recommend_batch`` and ``publish_metrics`` are the
    :class:`~repro.serving.sharded.ShardRouter`'s own methods and
    ``warm_start`` the :class:`~repro.serving.sharded.Shard`'s, bound as
    attributes; pushes return an :class:`UpdateReport`.

    Parameters
    ----------
    recommender:
        Fitted BPR-family model.
    feedback:
        Optional train interactions; when given, served lists exclude
        train positives (the paper's unknown-item lists) and the cache
        uses the positive sets for invalidation precision.
    features:
        Item features to serve with (visual models); defaults to the
        model's training features.
    item_classes / class_names:
        Classifier-assigned item classes and their names; enable the
        rolling CHR monitor.
    extractor:
        Fitted :class:`FeatureExtractor`; required only by
        :meth:`push_attacked_images`.
    screen:
        Optional :class:`~repro.serving.screen.FeatureScreen`.  When
        set, every feature push is screened *before* the scorer patch
        and cache invalidation; flagged items are quarantined (their
        previously served features stay live).  ``None`` (the default)
        leaves the push path bit-for-bit as before.
    n:
        Serving cutoff — the list length cached per user; ``recommend``
        may ask for any ``n`` up to it.
    monitor_window:
        Rolling window (in served lists) of the CHR monitor.
    """

    def __init__(
        self,
        recommender: Recommender,
        feedback: Optional[ImplicitFeedback] = None,
        features: Optional[np.ndarray] = None,
        item_classes: Optional[np.ndarray] = None,
        class_names: Optional[Sequence[str]] = None,
        extractor: Optional[FeatureExtractor] = None,
        screen: Optional[FeatureScreen] = None,
        n: int = 10,
        monitor_window: int = 256,
    ) -> None:
        if feedback is not None and (
            feedback.num_users != recommender.num_users
            or feedback.num_items != recommender.num_items
        ):
            raise ValueError("feedback universe does not match the recommender")
        self.recommender = recommender
        self.router = ShardedService.build(
            recommender,
            num_shards=1,
            backend="local",
            feedback=feedback,
            features=features,
            item_classes=item_classes,
            class_names=class_names,
            extractor=extractor,
            screen=screen,
            n=n,
            monitor_window=monitor_window,
        ).router
        self.router.fallback = None  # a scoring error raises, never masked
        shard = self.router.handles[0].shard
        self.n = self.router.n
        self.monitor = shard.monitor
        # The request path is the router's own, with no facade frame on it.
        self.recommend = self.router.recommend
        self.recommend_batch = self.router.recommend_batch
        self.warm_start = shard.warm_start
        self.publish_metrics = self.router.publish_metrics

    @classmethod
    def from_pipeline(
        cls,
        pipeline,
        n: int = 10,
        monitor_window: int = 256,
        warm_start: bool = False,
    ) -> "RecommenderService":
        """Serve the trained system inside a :class:`TAaMRPipeline`.

        Reuses the pipeline's clean standardised features and its
        classifier-assigned item classes (Definition 5), so the rolling
        CHR monitor reports in the same units as ``clean_chr_report``.
        ``warm_start=True`` additionally prefills the top-N cache from
        the pipeline's clean score matrix, so the first request per user
        is already a cache hit.
        """
        service = cls(
            pipeline.recommender,
            feedback=pipeline.dataset.feedback,
            features=pipeline.clean_features,
            item_classes=pipeline.item_classes,
            class_names=pipeline.dataset.registry.names,
            extractor=pipeline.extractor,
            n=n,
            monitor_window=monitor_window,
        )
        if warm_start:
            service.warm_start(pipeline.clean_scores)
        return service

    @classmethod
    def from_stage_results(
        cls,
        results,
        recommender_name: str = "VBPR",
        n: int = 10,
        monitor_window: int = 256,
        warm_start: bool = True,
    ) -> "RecommenderService":
        """Serve directly from :class:`~repro.experiments.StageResults`.

        The artifact-store path to production: the recommender, catalog
        features and clean scores all come from stored stage artifacts,
        and the top-N cache warm-starts from the ``clean_scores`` stage
        without a single scoring GEMM.
        """
        recommender = results.recommender(recommender_name)
        service = cls(
            recommender,
            feedback=results.dataset.feedback,
            features=results.features,
            item_classes=results.item_classes,
            class_names=results.dataset.registry.names,
            extractor=results.extractor,
            n=n,
            monitor_window=monitor_window,
        )
        stored = results.clean_scores.get(recommender_name.strip().upper())
        if warm_start and stored is not None:
            service.warm_start(stored)
        return service

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def push_item_features(self, item_ids, item_features) -> UpdateReport:
        """Swap item features and surgically invalidate affected lists.

        With a :class:`FeatureScreen` installed, the push is screened
        first: quarantined items never reach the scorer, so their old
        features keep serving and no list is invalidated for them.  A
        fully quarantined push is a recorded no-op.
        """
        self.router.push_item_features(item_ids, item_features)
        return self._settle(item_ids)

    def push_attacked_images(self, item_ids, images: np.ndarray) -> UpdateReport:
        """The deployed-system attack surface: new images for ``item_ids``.

        Features are re-extracted through the same fitted extractor the
        recommender trained against (raw layer-e pass + the catalog's
        standardisation), then pushed incrementally.
        """
        self.router.push_attacked_images(item_ids, images)
        return self._settle(item_ids)

    def _settle(self, item_ids) -> UpdateReport:
        """Drain the shard's ack for the push just made into a report."""
        acks = self.router.flush()
        item_ids = np.atleast_1d(np.asarray(item_ids, dtype=np.int64))
        quarantined: List[int] = []
        verdict = self.last_screen
        if verdict is not None:
            quarantined = [int(item) for item in verdict.quarantined_item_ids]
            item_ids = verdict.passed_item_ids
        return UpdateReport(
            item_ids=item_ids,
            scores_changed=any(ack["scores_changed"] for ack in acks),
            cached_users=sum(ack["cached_users"] for ack in acks),
            num_invalidated=sum(ack["invalidated_users"] for ack in acks),
            screened=self.screen is not None,
            quarantined_items=quarantined,
        )

    # ------------------------------------------------------------------ #
    @property
    def screen(self) -> Optional[FeatureScreen]:
        return self.router.screen

    @screen.setter
    def screen(self, screen: Optional[FeatureScreen]) -> None:
        self.router.screen = screen

    @property
    def last_screen(self) -> Optional[ScreenReport]:
        return self.router.last_screen

    @property
    def stats(self) -> Dict[str, float]:
        """Cache counters plus scorer update count."""
        aggregate = self.router.stats()
        return {**aggregate["cache"], "feature_updates": aggregate["feature_updates"]}
