"""Router front-end over a fleet of scoring shards.

:class:`ShardRouter` hashes each user to its owning shard
(``user % num_shards``, see
:class:`~repro.serving.sharded.partition.UserPartition`), serves
recommendation calls synchronously, and fans invalidation pushes out
*asynchronously*: every push gets the next epoch number and is ``cast``
to each healthy shard (at most ``backlog`` un-acked casts per shard);
acks drain on :meth:`flush`.
Shards apply epochs strictly in order (see
:mod:`repro.serving.sharded.shard`), so the router never waits for the
slowest shard to acknowledge an attack push before serving traffic.
Malformed requests and pushes are rejected with ``ValueError`` *before*
dispatch, so a caller's mistake never fails a healthy shard over.

**Graceful degradation.**  A shard that times out, errors, or dies is
marked unhealthy (``serving.shard_failover`` counter + span) and its
users are served from :class:`MostPopFallback` — most-popular is
*attack-immune*: its ranking never reads image features, so a poisoned
catalog cannot steer what degraded users see.  A failed shard stays out
of rotation: it missed every epoch pushed during its outage, so putting
it back would serve pre-outage scores.

:class:`ShardedService` is the lifecycle wrapper: it publishes the
item side (shared memory for the process backend, an in-process
snapshot for the local backend), builds the shard fleet, and tears
everything down — workers ``close()``, the owner ``close()+unlink()``
— leaving no leaked segments behind.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ...telemetry import active_metrics, monotonic, span
from ..screen import FeatureScreen, ScreenReport
from .partition import UserPartition
from .race import race_check_enabled
from .scorer import check_item_features, check_item_ids, compute_item_side
from .shard import Shard, ShardSpec
from .shm import ArrayBank, SharedArrayBundle
from .worker import (
    LocalShardHandle,
    ProcessShardHandle,
    ShardError,
    ShardTimeout,
)


class MostPopFallback:
    """Attack-immune degraded-mode ranker for failed shards.

    Ranks by global interaction count (stable order), skipping each
    user's seen items.  No image features anywhere in the path, so a
    poisoned push cannot influence what a degraded user is served.
    """

    def __init__(
        self, item_counts: np.ndarray, seen_items=None
    ) -> None:
        item_counts = np.asarray(item_counts, dtype=np.float64)
        if item_counts.ndim != 1 or item_counts.size == 0:
            raise ValueError("item_counts must be a non-empty 1-D vector")
        self.num_items = int(item_counts.size)
        self._order = np.argsort(-item_counts, kind="stable")
        self._seen = seen_items

    def recommend(self, user: int, n: int) -> np.ndarray:
        if n <= 0:
            raise ValueError("n must be positive")
        if self._seen is None:
            return self._order[:n].copy()
        seen = self._seen[user]
        picked = []
        for item in self._order:
            if int(item) not in seen:
                picked.append(item)
                if len(picked) == n:
                    break
        return np.asarray(picked, dtype=self._order.dtype)


class ShardRouter:
    """Request/update fan-out over shard handles (see module docstring)."""

    def __init__(
        self,
        handles: Sequence,
        num_users: int,
        num_items: int,
        fallback: Optional[MostPopFallback] = None,
        extractor=None,
        screen: Optional[FeatureScreen] = None,
        n: int = 10,
        cast_timeout_s: float = 5.0,
        call_timeout_s: Optional[float] = None,
        feature_dim: Optional[int] = None,
    ) -> None:
        if not handles:
            raise ValueError("need at least one shard handle")
        self.handles = list(handles)
        self.partition = UserPartition(num_users, len(self.handles))
        self.num_users = int(num_users)
        self.num_shards = len(self.handles)
        self.num_items = num_items
        self.feature_dim = feature_dim  # visual models only; checks pushes
        self.fallback = fallback
        self.extractor = extractor
        self.screen = screen
        self.last_screen: Optional[ScreenReport] = None
        self.n = n
        self.cast_timeout_s = cast_timeout_s
        self.call_timeout_s = call_timeout_s
        self._healthy = [True] * len(self.handles)
        self._epoch = 0
        self.failovers = 0
        self.fallback_requests = 0

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        return self._epoch

    def healthy_shards(self) -> List[int]:
        return [i for i, ok in enumerate(self._healthy) if ok]

    def mark_unhealthy(self, shard_id: int, reason: str = "") -> None:
        """Take a shard out of rotation (idempotent); telemetry on edge."""
        if not self._healthy[shard_id]:
            return
        self._healthy[shard_id] = False
        self.failovers += 1
        with span("serving.shard_failover", shard=shard_id, reason=reason):
            registry = active_metrics()
            if registry is not None:
                registry.counter("serving.shard_failover").inc()

    def ping(self) -> List[Dict]:
        """Round-trip the ``ping`` op through every healthy shard.

        A liveness probe that exercises the full wire path (pipe in,
        dispatch, pipe out) rather than just ``Process.is_alive()``;
        shards that fail the round trip are marked unhealthy.  Used as
        the build-time health check before a fleet takes traffic.
        """
        replies: List[Dict] = []
        for shard_id in self.healthy_shards():
            try:
                replies.append(
                    self.handles[shard_id].call("ping", timeout_s=self.call_timeout_s)
                )
            except (ShardError, ShardTimeout) as exc:
                self.mark_unhealthy(shard_id, reason=type(exc).__name__)
        return replies

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def _check_n(self, n) -> int:
        n = self.n if n is None else int(n)
        if not 1 <= n <= self.n:
            raise ValueError(f"n must be in [1, {self.n}] (the serving cutoff)")
        return n

    def _serve_fallback(self, user: int, n: int) -> np.ndarray:
        if self.fallback is None:
            shard_id = user % self.num_shards
            raise ShardError(
                f"shard {shard_id} is unhealthy and no fallback is configured",
                shard_id=shard_id,
                kind="Unhealthy",
            )
        self.fallback_requests += 1
        registry = active_metrics()
        if registry is not None:
            registry.counter("serving.fallback.requests").inc()
        return self.fallback.recommend(user, n)

    def recommend(self, user: int, n: Optional[int] = None) -> np.ndarray:
        """Top-``n`` for ``user``, failing over on shard trouble.

        ``n`` defaults to the serving cutoff and must not exceed it (the
        cached head only extends that far); an out-of-range ``n`` or
        ``user`` raises ``ValueError`` without touching any shard.
        """
        user = int(user)
        n = self._check_n(n)
        if not 0 <= user < self.num_users:
            raise ValueError(f"user must lie in [0, {self.num_users})")
        shard_id = user % self.num_shards
        registry = active_metrics()
        started = monotonic() if registry is not None else 0.0
        handle = self.handles[shard_id]
        if not self._healthy[shard_id] or not handle.alive():
            if self._healthy[shard_id]:
                self.mark_unhealthy(shard_id, reason="worker death")
            served = self._serve_fallback(user, n)
        else:
            try:
                served = handle.call(
                    "recommend", {"user": user, "n": n}, timeout_s=self.call_timeout_s
                )
            except (ShardError, ShardTimeout) as exc:
                self.mark_unhealthy(shard_id, reason=type(exc).__name__)
                served = self._serve_fallback(user, n)
        if registry is not None:
            registry.histogram("serving.recommend.latency_ms").record(
                1e3 * (monotonic() - started)
            )
        return served

    def recommend_batch(self, user_ids, n: Optional[int] = None) -> np.ndarray:
        """Top-``n`` for a batch: one ``recommend_many`` RPC per shard.

        Users are grouped by owning shard (original order preserved
        within each group, so per-shard cache behaviour is identical to
        the per-user loop) and each group rides a single round trip
        instead of one pipe ping-pong per user.  A shard that fails
        mid-batch fails over per-user, same as :meth:`recommend`; a bad
        ``n`` or user id rejects the whole batch before dispatch.
        """
        users = np.atleast_1d(np.asarray(user_ids, dtype=np.int64))
        n = self._check_n(n)
        if users.ndim != 1 or users.size == 0:
            raise ValueError("user_ids must be a non-empty scalar or 1-D sequence")
        if users.min() < 0 or users.max() >= self.num_users:
            raise ValueError(f"user_ids must lie in [0, {self.num_users})")
        results: List[Optional[np.ndarray]] = [None] * int(users.size)
        by_shard: Dict[int, List[int]] = {}
        for pos, user in enumerate(users.tolist()):
            by_shard.setdefault(user % self.num_shards, []).append(pos)
        for shard_id, positions in sorted(by_shard.items()):
            owned = [int(users[pos]) for pos in positions]
            handle = self.handles[shard_id]
            served = None
            if not self._healthy[shard_id] or not handle.alive():
                if self._healthy[shard_id]:
                    self.mark_unhealthy(shard_id, reason="worker death")
            else:
                try:
                    served = handle.call(
                        "recommend_many",
                        {"users": owned, "n": n},
                        timeout_s=self.call_timeout_s,
                    )
                except (ShardError, ShardTimeout) as exc:
                    self.mark_unhealthy(shard_id, reason=type(exc).__name__)
            if served is None:
                served = [self._serve_fallback(user, n) for user in owned]
            for pos, row in zip(positions, served):
                results[pos] = np.asarray(row)
        return np.stack(results)

    # ------------------------------------------------------------------ #
    # Update path (async fan-out)
    # ------------------------------------------------------------------ #
    def push_item_features(self, item_ids, item_features) -> int:
        """Fan an epoch-stamped feature push to every healthy shard.

        Returns the epoch assigned to this push.  The call returns once
        each healthy shard has the update *sent* — application is
        asynchronous; :meth:`flush` drains the acks.

        With a :class:`FeatureScreen` installed, screening happens
        **once at the router, before the fan-out**: quarantined items
        never reach any shard, so no worker rescoring or invalidation
        runs on their behalf.  A fully quarantined push is dropped and
        the current epoch is returned unchanged (no epoch is spent on
        an update no shard will ever see); so is an empty push.  A
        malformed push raises ``ValueError`` before any shard sees it.
        :attr:`last_screen` is this push's verdict (None if unscreened).
        """
        item_ids, item_features = self._check_push(item_ids, item_features)
        self.last_screen = None
        if item_ids.size == 0:
            return self._epoch
        if self.screen is not None and item_features is not None:
            verdict = self.screen.screen(item_ids, item_features)
            self.last_screen = verdict
            item_ids = verdict.passed_item_ids
            item_features = item_features[~verdict.flagged]
            if item_ids.size == 0:
                return self._epoch
        self._epoch += 1
        epoch = self._epoch
        payload = {
            "epoch": epoch,
            "item_ids": item_ids,
            "item_features": item_features,
        }
        with span(
            "serving.sharded.push_item_features", items=int(item_ids.size), epoch=epoch
        ) as push_span:
            enqueued = 0
            for shard_id in self.healthy_shards():
                try:
                    self.handles[shard_id].cast(
                        "update", payload, timeout_s=self.cast_timeout_s
                    )
                    enqueued += 1
                except (ShardError, ShardTimeout) as exc:
                    self.mark_unhealthy(shard_id, reason=type(exc).__name__)
            push_span.set_attrs(shards=enqueued)
            registry = active_metrics()
            if registry is not None:
                registry.counter("serving.updates.pushed_items").inc(
                    int(item_ids.size)
                )
        return epoch

    def _check_push(self, item_ids, item_features):
        """The shard's own update checks, run before any shard can fail them."""
        item_ids = np.atleast_1d(np.asarray(item_ids, dtype=np.int64))
        if item_ids.size:
            item_ids = check_item_ids(item_ids, self.num_items)
            if self.feature_dim is not None:
                item_features = check_item_features(
                    item_features, item_ids.size, self.feature_dim
                )
        if item_features is not None:
            item_features = np.asarray(item_features, dtype=np.float64)
        return item_ids, item_features

    def push_attacked_images(self, item_ids, images: np.ndarray) -> int:
        """The deployed-system attack surface, sharded edition.

        Features are extracted **once** at the router through the same
        fitted extractor the recommender trained against, then fanned
        out — shards never touch raw pixels.
        """
        if self.extractor is None:
            raise RuntimeError(
                "push_attacked_images requires an extractor; build the "
                "service with one"
            )
        with span("serving.sharded.push_attacked_images", items=int(np.size(item_ids))):
            raw = self.extractor.model.extract_features(
                np.asarray(images), batch_size=self.extractor.batch_size
            )
            features = self.extractor.transform_raw_features(raw)
            return self.push_item_features(item_ids, features)

    def flush(self, timeout_s: Optional[float] = None) -> List[Dict]:
        """Drain outstanding update acks from every healthy shard."""
        reports: List[Dict] = []
        for shard_id in self.healthy_shards():
            try:
                reports.extend(self.handles[shard_id].flush(timeout_s=timeout_s))
            except (ShardError, ShardTimeout) as exc:
                self.mark_unhealthy(shard_id, reason=type(exc).__name__)
        registry = active_metrics()
        if registry is not None:
            invalidated = sum(r.get("invalidated_users", 0) for r in reports)
            if invalidated:
                registry.counter("serving.updates.invalidated_users").inc(invalidated)
        return reports

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def shard_stats(self) -> List[Dict]:
        """Raw per-shard stats from every healthy shard."""
        stats = []
        for shard_id in self.healthy_shards():
            try:
                stats.append(
                    self.handles[shard_id].call("stats", timeout_s=self.call_timeout_s)
                )
            except (ShardError, ShardTimeout) as exc:
                self.mark_unhealthy(shard_id, reason=type(exc).__name__)
        return stats

    def stats(self) -> Dict:
        """Cross-shard aggregate: summed cache counters, merged CHR."""
        per_shard = self.shard_stats()
        cache_keys = ("hits", "misses", "puts", "invalidations", "update_batches")
        cache = {key: int(sum(s["cache"][key] for s in per_shard)) for key in cache_keys}
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        aggregate: Dict = {
            "cache": cache,
            "cache_size": int(sum(s["cache_size"] for s in per_shard)),
            "feature_updates": int(sum(s["feature_updates"] for s in per_shard)),
            "stale_updates": int(sum(s["stale_updates"] for s in per_shard)),
            "healthy_shards": len(per_shard),
            "unhealthy_shards": len(self.handles) - len(per_shard),
            "failovers": self.failovers,
            "fallback_requests": self.fallback_requests,
            "epoch": self._epoch,
            "per_shard": per_shard,
        }
        monitors = [s["monitor"] for s in per_shard if "monitor" in s]
        if monitors:
            counts = np.sum([m["counts"] for m in monitors], axis=0)
            slots = int(sum(m["slots"] for m in monitors))
            names = monitors[0]["class_names"]
            aggregate["chr"] = {
                name: (100.0 * float(counts[idx]) / slots if slots else 0.0)
                for idx, name in enumerate(names)
            }
            aggregate["chr_observed"] = int(sum(m["observed"] for m in monitors))
        return aggregate

    def publish_metrics(self, registry) -> None:
        """Mirror the cross-shard aggregate into a metrics registry."""
        aggregate = self.stats()
        for key, value in aggregate["cache"].items():
            registry.gauge(f"serving.cache.lifetime.{key}").set(value)
        registry.gauge("serving.cache.size").set(aggregate["cache_size"])
        registry.gauge("serving.scorer.feature_updates").set(
            aggregate["feature_updates"]
        )
        registry.gauge("serving.sharded.healthy_shards").set(
            aggregate["healthy_shards"]
        )
        registry.gauge("serving.sharded.epoch").set(aggregate["epoch"])


class ShardedService:
    """Owner of the published item side + shard fleet + router."""

    def __init__(
        self,
        router: ShardRouter,
        bundle: Optional[SharedArrayBundle] = None,
        bank: Optional[ArrayBank] = None,
    ) -> None:
        self.router = router
        self._bundle = bundle
        self._bank = bank
        self._closed = False

    # Convenience delegation -------------------------------------------- #
    def recommend(self, user: int, n: Optional[int] = None) -> np.ndarray:
        return self.router.recommend(user, n)

    def recommend_batch(self, user_ids, n: Optional[int] = None) -> np.ndarray:
        return self.router.recommend_batch(user_ids, n)

    def push_item_features(self, item_ids, item_features) -> int:
        return self.router.push_item_features(item_ids, item_features)

    def push_attacked_images(self, item_ids, images) -> int:
        return self.router.push_attacked_images(item_ids, images)

    def flush(self, timeout_s: Optional[float] = None) -> List[Dict]:
        return self.router.flush(timeout_s=timeout_s)

    def stats(self) -> Dict:
        return self.router.stats()

    def ping(self) -> List[Dict]:
        return self.router.ping()

    def publish_metrics(self, registry) -> None:
        self.router.publish_metrics(registry)

    @property
    def segment_name(self) -> Optional[str]:
        return self._bundle.manifest.segment if self._bundle is not None else None

    # Warm start -------------------------------------------------------- #
    def warm_start(self, scores: np.ndarray) -> int:
        """Prefill every healthy shard from one global score matrix.

        The process backend publishes ``scores`` as a throwaway shm
        bundle so each worker slices its own users zero-copy instead of
        pickling catalog-sized blocks through the pipes.
        """
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        total = 0
        process_backed = any(
            isinstance(h, ProcessShardHandle) for h in self.router.handles
        )
        if process_backed:
            bundle = SharedArrayBundle({"scores": scores})
            try:
                for shard_id in self.router.healthy_shards():
                    total += self.router.handles[shard_id].call(
                        "warm", {"manifest": bundle.manifest, "key": "scores"}
                    )
            finally:
                bundle.release()
        else:
            for shard_id in self.router.healthy_shards():
                total += self.router.handles[shard_id].call(
                    "warm", {"scores": scores}
                )
        return total

    # Lifecycle --------------------------------------------------------- #
    def close(self) -> None:
        """Stop workers, then release the published segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self.router.handles:
            handle.stop()
        if self._bank is not None:
            self._bank.close()
        if self._bundle is not None:
            self._bundle.release()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Construction ------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        recommender,
        num_shards: int,
        backend: str = "process",
        feedback=None,
        features: Optional[np.ndarray] = None,
        item_classes: Optional[np.ndarray] = None,
        class_names: Optional[Sequence[str]] = None,
        extractor=None,
        screen: Optional[FeatureScreen] = None,
        n: int = 10,
        monitor_window: int = 256,
        max_pending: int = 64,
        backlog: int = 64,
        start_method: str = "fork",
        escalate_fraction: float = 0.25,
        fallback_counts: Optional[np.ndarray] = None,
        cast_timeout_s: float = 5.0,
        call_timeout_s: Optional[float] = None,
        race_check: Optional[bool] = None,
    ) -> "ShardedService":
        """Publish the item side once and spin up the shard fleet.

        ``backend="process"`` forks one worker per shard attached to a
        shared-memory segment; ``backend="local"`` builds the identical
        shards in-process against a snapshot bank (what
        :class:`~repro.serving.RecommenderService` and the bitwise
        equivalence tests run).

        ``race_check`` arms the runtime shm-write sentinel in every
        worker (``None`` defers to the ``REPRO_RACE_CHECK`` environment
        toggle, so existing suites run unchanged under the mode).
        """
        if backend not in ("process", "local"):
            raise ValueError(f"unknown backend {backend!r}")
        race = race_check_enabled(race_check)
        kind, arrays = compute_item_side(recommender, features=features)
        partition = UserPartition(recommender.num_users, num_shards)
        n = min(n, recommender.num_items)  # the cache's effective cutoff

        seen_all = feedback.positive_sets() if feedback is not None else None
        specs: List[ShardSpec] = []
        bundle: Optional[SharedArrayBundle] = None
        bank: Optional[ArrayBank] = None
        manifest = None
        if backend == "process":
            bundle = SharedArrayBundle(arrays)
            manifest = bundle.manifest
        else:
            bank = ArrayBank.snapshot(arrays)

        for shard_id in range(num_shards):
            user_ids = partition.users_of(shard_id)
            user_factors = None
            visual_user_factors = None
            if kind != "mostpop":
                user_factors = np.array(
                    recommender.user_factors[user_ids], dtype=np.float64
                )
            if kind == "vbpr":
                visual_user_factors = np.array(
                    recommender.visual_user_factors[user_ids], dtype=np.float64
                )
            train_items = None
            seen_sets = None
            if feedback is not None:
                train_items = {
                    int(user): feedback.train_items[user] for user in user_ids
                }
                seen_sets = {int(user): seen_all[user] for user in user_ids}
            specs.append(
                ShardSpec(
                    shard_id=shard_id,
                    num_shards=num_shards,
                    num_users=recommender.num_users,
                    num_items=recommender.num_items,
                    kind=kind,
                    manifest=manifest,
                    user_ids=user_ids,
                    user_factors=user_factors,
                    visual_user_factors=visual_user_factors,
                    n=n,
                    train_items=train_items,
                    seen_sets=seen_sets,
                    item_classes=item_classes,
                    class_names=tuple(class_names) if class_names else None,
                    monitor_window=monitor_window,
                    max_pending=max_pending,
                    escalate_fraction=escalate_fraction,
                    race_check=race,
                )
            )

        handles: List = []
        try:
            if backend == "process":
                for spec in specs:
                    handles.append(
                        ProcessShardHandle(
                            spec, backlog=backlog, start_method=start_method
                        )
                    )
            else:
                for spec in specs:
                    handles.append(
                        LocalShardHandle(Shard.over_bank(spec, bank), race_check=race)
                    )
        except Exception:
            for handle in handles:
                handle.stop()
            if bank is not None:
                bank.close()
            if bundle is not None:
                bundle.release()
            raise

        counts = fallback_counts
        if counts is None and feedback is not None:
            counts = feedback.item_interaction_counts()
        if counts is None and kind == "mostpop":
            counts = arrays["item_counts"]
        fallback = (
            MostPopFallback(counts, seen_items=seen_all) if counts is not None else None
        )
        router = ShardRouter(
            handles,
            num_users=recommender.num_users,
            num_items=recommender.num_items,
            fallback=fallback,
            extractor=extractor,
            screen=screen,
            n=n,
            cast_timeout_s=cast_timeout_s,
            call_timeout_s=call_timeout_s,
            feature_dim=arrays["embedding"].shape[0] if kind == "vbpr" else None,
        )
        service = cls(router, bundle=bundle, bank=bank)
        # Build-time health check: every worker must answer a ping over
        # the real wire path before the fleet takes traffic, so a shard
        # that forked but wedged surfaces here, not mid-request.
        replies = router.ping()
        if len(replies) < len(handles):
            service.close()
            raise ShardError(
                f"{len(handles) - len(replies)} of {len(handles)} shard(s) "
                "failed the build-time ping health check",
                kind="BuildHealthCheck",
            )
        return service
