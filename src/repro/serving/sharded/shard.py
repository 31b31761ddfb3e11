"""One serving shard: a user slice's scorer + cache + epoch-ordered updates.

A :class:`Shard` is the whole serving stack for the users one worker
owns: a :class:`~repro.serving.index.TopNCache`, a
:class:`RollingChrMonitor` and a
:class:`~repro.serving.sharded.scorer.SharedScorer` over the published
item side.  The same class runs in-process (local handles — including
the one-shard ``ShardedService.from_pipeline`` default) and inside
worker processes (:meth:`from_spec` attaches the shared-memory bank).

**Epoch ordering.**  The router stamps every invalidation fan-out with
a monotonically increasing epoch.  :meth:`submit_update` applies epochs
in strictly contiguous order: a future epoch is *buffered* until the
gap fills, a stale or duplicate epoch is *dropped* — so out-of-order or
replayed delivery can neither apply updates backwards nor resurrect a
cache entry that a later epoch already invalidated.  The pending buffer
is bounded (``max_pending``); overflowing it is a hard error that the
worker surfaces and the router answers by failing the shard over.

**Refill on push.**  A push drops exactly the cached lists it can
change (:meth:`~repro.serving.index.TopNCache.apply_update`) and the
shard refreshes them before it acks: once the delivery's contiguous
epochs are applied, the users they invalidated are recomputed as one
block fill (:meth:`_fill`, the path cold batches and warm starts take),
so requests after a push stay on the cache and ``puts`` counts the
refills.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..index import TopNCache
from .scorer import SharedScorer
from .shm import ArrayBank, ShmManifest, attach_bundle

#: Float64 scores one block fill holds at a time (4 MiB): bounds what a
#: cold batch or a warm start allocates, however many users it covers.
FILL_BLOCK_BYTES = 4 << 20


class RollingChrMonitor:
    """CHR@N over a rolling window of served recommendation lists.

    Definition 5 over what the service *actually serves*: the fraction
    of the last ``window`` lists' slots occupied by each class.  Lists
    may have different lengths (callers request different ``n``); the
    denominator is the total slot count in the window.  Per-list class
    counts live in a ``(window, C)`` ring buffer beside running totals,
    so each observation overwrites the row of the list it evicts.
    """

    def __init__(
        self,
        item_classes: np.ndarray,
        class_names: Sequence[str],
        window: int = 256,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        item_classes = np.asarray(item_classes, dtype=np.int64)
        if item_classes.ndim != 1:
            raise ValueError("item_classes must be 1-D")
        if item_classes.size and item_classes.max() >= len(class_names):
            raise ValueError("item_classes reference unknown classes")
        self.item_classes = item_classes
        self.class_names = list(class_names)
        self.window = window
        # Row ``i % window`` holds the class counts of the i-th observed
        # list until list ``i + window`` overwrites it.
        self._ring = np.zeros((window, len(class_names)), dtype=np.int64)
        self._counts = np.zeros(len(class_names), dtype=np.int64)
        self._slots = 0
        self.observed = 0  # lists ever observed (not capped by window)

    def observe(self, items: np.ndarray) -> None:
        """Record one served list (item ids)."""
        items = np.asarray(items, dtype=np.int64)
        counts = np.bincount(self.item_classes[items], minlength=len(self.class_names))
        # Rows not yet written are zero, so the first lap evicts nothing.
        evicted = self._ring[self.observed % self.window]
        self._counts += counts - evicted
        self._slots += items.size - int(evicted.sum())
        evicted[:] = counts
        self.observed += 1

    def observe_many(self, items: np.ndarray) -> None:
        """Record a ``(lists, length)`` block of served lists, row by row.

        The block is checked whole before any state moves.  Rows more
        than a window from its end would be evicted within the block,
        so they only advance ``observed``; the rest are observed in
        order.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.ndim != 2:
            raise ValueError("items must be a (lists, length) block")
        if items.size and (items.min() < 0 or items.max() >= self.item_classes.size):
            raise ValueError("items reference ids outside the catalog")
        skipped = max(0, len(items) - self.window)
        self.observed += skipped
        for row in items[skipped:]:
            self.observe(row)

    def chr_percent(self, class_name: str) -> float:
        """Rolling CHR of one class, in percent (Table II units)."""
        idx = self.class_names.index(class_name)
        return 100.0 * self._counts[idx] / self._slots if self._slots else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Rolling CHR percent per class name."""
        if self._slots == 0:
            return {name: 0.0 for name in self.class_names}
        return {
            name: 100.0 * float(self._counts[idx]) / self._slots
            for idx, name in enumerate(self.class_names)
        }

    def counts_snapshot(self):
        """Raw ``(per-class slot counts, total slots)`` of the window.

        The mergeable form: the shard router aggregates cross-shard CHR
        by summing counts and slots, which is exact — percentages are
        not mergeable, counts are.
        """
        return self._counts.copy(), int(self._slots)


@dataclass
class ShardSpec:
    """Everything a worker process needs to build its shard (picklable).

    The big arrays are *not* here: the item side travels as a
    :class:`ShmManifest` (attach, don't copy) and only the shard's own
    user-side rows ride along.
    """

    shard_id: int
    num_users: int
    num_items: int
    manifest: ShmManifest
    user_ids: np.ndarray
    #: The owned users' rows of the model's user side (empty for MostPop).
    user_side: Dict[str, np.ndarray] = field(default_factory=dict)
    n: int = 10
    train_items: Optional[Dict[int, np.ndarray]] = None
    item_classes: Optional[np.ndarray] = None
    class_names: Optional[Tuple[str, ...]] = None
    monitor_window: int = 256
    max_pending: int = 64
    #: Arm the runtime shm-write sentinel around worker dispatch (race
    #: check mode — see :mod:`repro.serving.sharded.race`).
    race_check: bool = False


@dataclass
class ShardUpdateReport:
    """What one epoch-stamped delivery did to shard state."""

    epoch: int
    applied_epochs: List[int] = field(default_factory=list)
    buffered: bool = False
    stale: bool = False
    invalidated_users: int = 0
    scores_changed: bool = False
    cached_users: int = 0  # cache size when the delivery arrived

    def as_dict(self) -> Dict:
        return asdict(self)


class Shard:
    """Serving state for one user slice (see module docstring)."""

    def __init__(
        self,
        shard_id: int,
        scorer: SharedScorer,
        n: int = 10,
        train_items=None,
        item_classes: Optional[np.ndarray] = None,
        class_names: Optional[Sequence[str]] = None,
        monitor_window: int = 256,
        max_pending: int = 64,
        bank_closer=None,
    ) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.shard_id = shard_id
        self.scorer = scorer
        self.user_ids = scorer.user_ids
        seen = (
            None
            if train_items is None
            else {user: set(items.tolist()) for user, items in train_items.items()}
        )
        self.index = TopNCache(n, scorer.num_items, seen_items=seen)
        self.n = self.index.n
        self._train_items = train_items
        self.max_pending = max_pending
        self._bank_closer = bank_closer

        self.monitor: Optional[RollingChrMonitor] = None
        if item_classes is not None:
            if class_names is None:
                raise ValueError("class_names required alongside item_classes")
            self.monitor = RollingChrMonitor(
                item_classes, class_names, window=monitor_window
            )

        self.applied_epoch = 0  # epochs are 1-based; 0 = pristine
        self._pending: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.stale_updates = 0  # duplicate / already-applied deliveries dropped

    @classmethod
    def from_spec(cls, spec: ShardSpec) -> "Shard":
        """Worker-process constructor: attach the shm bank, build the shard."""
        bank = attach_bundle(spec.manifest)
        return cls.over_bank(spec, bank, bank_closer=bank.close)

    @classmethod
    def over_bank(cls, spec: ShardSpec, bank: ArrayBank, bank_closer=None) -> "Shard":
        """Build the shard ``spec`` describes, scoring against ``bank``.

        The one place a shard is assembled: worker processes pass their
        shm attachment (via :meth:`from_spec`), in-process fleets pass
        the owner's snapshot bank and keep its lifetime to themselves.
        """
        scorer = SharedScorer(
            bank,
            num_users=spec.num_users,
            num_items=spec.num_items,
            user_ids=spec.user_ids,
            user_side=spec.user_side,
        )
        return cls(
            spec.shard_id,
            scorer,
            n=spec.n,
            train_items=spec.train_items,
            item_classes=spec.item_classes,
            class_names=spec.class_names,
            monitor_window=spec.monitor_window,
            max_pending=spec.max_pending,
            bank_closer=bank_closer,
        )

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def owns(self, user: int) -> bool:
        return self.scorer.owns(user)

    def _compute_entry(self, user: int):
        """Fresh top-N ``(items, scores)``: one score row, seen items masked."""
        scores = self.scorer.score_block([user])[0]
        if self._train_items is not None:
            scores[self._train_items[user]] = -np.inf
        k = self.index.n
        head = np.argpartition(-scores, k - 1)[:k]
        items = head[np.argsort(-scores[head], kind="stable")]
        return items, scores[items]

    def recommend(self, user: int, n: Optional[int] = None) -> np.ndarray:
        """Top-``n`` for an owned user (cached; misses score one row)."""
        n = self.n if n is None else n
        if n <= 0 or n > self.n:
            raise ValueError(f"n must be in [1, {self.n}] (the serving cutoff)")
        user = int(user)
        if not self.owns(user):
            raise ValueError(f"user {user} is not owned by shard {self.shard_id}")
        items = self.index.get(user)
        if items is None:
            items, scores = self._compute_entry(user)
            self.index.put(user, items, scores)
        served = items[:n]
        if self.monitor is not None:
            self.monitor.observe(served)
        return served

    def recommend_many(self, users, n: Optional[int] = None) -> np.ndarray:
        """Top-``n`` for a batch of owned users: row ``i`` serves ``users[i]``.

        Means exactly what :meth:`recommend` on each user in order
        means — a repeated user misses once and hits after that, the
        cache counters and the monitor move as the loop moves them —
        but the misses are filled as blocks (:meth:`_fill`) and the
        served rows are read and observed as one array.  Every user is
        checked before any state changes.
        """
        n = self.n if n is None else n
        if n <= 0 or n > self.n:
            raise ValueError(f"n must be in [1, {self.n}] (the serving cutoff)")
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        for user in users.tolist():
            if not self.owns(user):
                raise ValueError(f"user {user} is not owned by shard {self.shard_id}")
        self._fill(self.index.lookup_many(users))
        served = self.index.take(users, n)
        if self.monitor is not None:
            self.monitor.observe_many(served)
        return served

    def _fill(self, users: np.ndarray, scores=None, rows=None) -> None:
        """Compute and cache the top-N lists of ``users``, a chunk at a time.

        The one block path: batch misses, warm starts and the refill
        after a push all cache their lists through it.

        A chunk holds at most :data:`FILL_BLOCK_BYTES` of float64 scores:
        one ``score_block`` over its users (or, for a warm start, rows
        ``rows`` of the matrix ``scores``), seen items masked, then one
        ``argpartition`` and one stable ``argsort`` along the rows — per
        row exactly :meth:`_compute_entry`'s ordering — and one
        :meth:`~repro.serving.index.TopNCache.put_many`.
        """
        k = self.index.n
        step = max(1, FILL_BLOCK_BYTES // (8 * self.scorer.num_items))
        for start in range(0, users.size, step):
            chunk = users[start : start + step]
            if scores is None:
                block = self.scorer.score_block(chunk)
            else:
                block = np.take(scores, rows[start : start + step], axis=0)  # a copy
            if self._train_items is not None:
                seen = [self._train_items[user] for user in chunk.tolist()]
                lengths = [len(items) for items in seen]
                block[np.repeat(np.arange(chunk.size), lengths), np.concatenate(seen)] = -np.inf
            # Rank on -scores, as _compute_entry does; negation is exact.
            np.negative(block, out=block)
            heads = np.argpartition(block, k - 1, axis=1)[:, :k]
            head_scores = np.take_along_axis(block, heads, axis=1)
            order = np.argsort(head_scores, axis=1, kind="stable")
            items = np.take_along_axis(heads, order, axis=1)
            self.index.put_many(
                chunk, items, -np.take_along_axis(head_scores, order, axis=1)
            )

    # ------------------------------------------------------------------ #
    # Warm start
    # ------------------------------------------------------------------ #
    def warm_start(self, scores: np.ndarray, user_ids=None) -> int:
        """Prefill owned users from a score matrix or row-aligned block.

        ``scores`` may be the full global ``(num_users, num_items)``
        matrix (rows for this shard's users are sliced out — e.g. a
        shared-memory view of the ``clean_scores`` artifact) or a block
        already aligned with ``user_ids`` (defaulting to every owned
        user).  Masking and head selection are the request path's block
        fill (:meth:`_fill`), so a warmed entry is indistinguishable
        from a computed one, and only one chunk of rows is copied at a
        time.
        """
        user_ids = (
            self.user_ids
            if user_ids is None
            else np.atleast_1d(np.asarray(user_ids, dtype=np.int64))
        )
        for user in user_ids:
            if not self.owns(int(user)):
                raise ValueError(
                    f"user {int(user)} is not owned by shard {self.shard_id}"
                )
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape == (self.scorer.num_users, self.scorer.num_items):
            rows = user_ids
        elif scores.shape == (user_ids.shape[0], self.scorer.num_items):
            rows = np.arange(user_ids.size)
        else:
            raise ValueError(
                "warm-start scores must be (num_users, num_items) or a "
                f"row-aligned (len(user_ids), num_items) block; got {scores.shape}"
            )
        self._fill(user_ids, scores, rows)
        return int(user_ids.size)

    # ------------------------------------------------------------------ #
    # Update path (epoch-ordered)
    # ------------------------------------------------------------------ #
    def submit_update(
        self, epoch: int, item_ids, item_features
    ) -> ShardUpdateReport:
        """Deliver one epoch-stamped feature push (may arrive out of order).

        Applies every epoch that is now contiguous, then refills the
        users those epochs invalidated — their union, in invalidation
        order, as one :meth:`_fill` over the final item side — so each
        refreshed entry is what its next miss would compute (the block
        path's ordering; scores within its BLAS rounding).
        A buffered or stale delivery changes no cache entry.
        """
        epoch = int(epoch)
        if epoch <= 0:
            raise ValueError("epochs are 1-based and positive")
        report = ShardUpdateReport(epoch=epoch, cached_users=len(self.index))
        if epoch <= self.applied_epoch or epoch in self._pending:
            # Stale or duplicate delivery: already folded in (or queued).
            # Re-applying would re-run invalidation against *newer* cache
            # entries — the resurrect-stale-entries bug the ordering test
            # pins down — so it is dropped outright.
            self.stale_updates += 1
            report.stale = True
            return report
        item_ids = np.atleast_1d(np.asarray(item_ids, dtype=np.int64))
        item_features = (
            None if item_features is None else np.asarray(item_features, dtype=np.float64)
        )
        self._pending[epoch] = (item_ids, item_features)
        if len(self._pending) > self.max_pending:
            self._pending.clear()
            raise RuntimeError(
                f"shard {self.shard_id}: update backlog exceeded "
                f"{self.max_pending} buffered epochs (next expected "
                f"{self.applied_epoch + 1}, got {epoch})"
            )
        invalidated: List[int] = []
        while (self.applied_epoch + 1) in self._pending:
            next_epoch = self.applied_epoch + 1
            ids, feats = self._pending.pop(next_epoch)
            changed, dropped = self._apply_update(ids, feats)
            self.applied_epoch = next_epoch
            report.applied_epochs.append(next_epoch)
            report.scores_changed = report.scores_changed or changed
            invalidated.extend(dropped)
        report.buffered = epoch not in report.applied_epochs
        report.invalidated_users = len(invalidated)
        # Refill what the applied epochs dropped, as one block over the
        # final item side.
        refill = [user for user in dict.fromkeys(invalidated) if user not in self.index]
        self._fill(np.array(refill, dtype=np.int64))
        return report

    def _apply_update(self, item_ids: np.ndarray, item_features) -> Tuple[bool, List[int]]:
        """Fold one epoch in; returns ``(scores changed, invalidated users)``."""
        # One int64 array serves both the re-score and the invalidation.
        cached = np.array(self.index.cached_users(), dtype=np.int64)
        changed = self.scorer.update_item_features(item_ids, item_features)
        if not (changed and cached.size):
            return changed, []
        new_columns = self.scorer.score_items(cached, item_ids)
        return changed, self.index.apply_update(cached, item_ids, new_columns)

    @property
    def pending_epochs(self) -> List[int]:
        return sorted(self._pending)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict:
        """Mergeable shard state for router-side aggregation."""
        payload = {
            "shard_id": self.shard_id,
            "users": int(self.user_ids.size),
            "cache": self.index.stats.as_dict(),
            "cache_size": len(self.index),
            "feature_updates": self.scorer.feature_updates,
            "applied_epoch": self.applied_epoch,
            "pending_epochs": self.pending_epochs,
            "stale_updates": self.stale_updates,
            "overlay_items": self.scorer.overlay_size,
            # Read by perfbench/serve.py's serving.scorer.escalated layer.
            "escalated": False,
        }
        if self.monitor is not None:
            counts, slots = self.monitor.counts_snapshot()
            payload["monitor"] = {
                "counts": counts.tolist(),
                "slots": slots,
                "observed": self.monitor.observed,
                "class_names": list(self.monitor.class_names),
            }
        return payload

    def close(self) -> None:
        """Drop cache state and release the shm attachment (idempotent)."""
        self.index.clear()
        if self._bank_closer is not None:
            closer, self._bank_closer = self._bank_closer, None
            closer()
