"""Per-user top-N cache with attack-driven fine-grained invalidation.

A served top-N list stays valid until some item's score change could
alter it.  The cache tracks, per cached user, the *head* (the N served
items, best first) and a *threshold* — the score of the N-th item.
When item features are pushed (:meth:`apply_update`), a cached list is
invalidated only if

* an updated item currently sits in the head (its new score may demote
  or reorder it), or
* an updated item's new score reaches the threshold (``>=`` — ties are
  treated conservatively) and the item is not a train positive of the
  user, so it could enter the head.

Everything else keeps serving from cache: a perturbation that moves a
sock's score from rank 900 to rank 500 of a user's ranking costs that
user nothing.  This is the serving-layer mirror of the paper's CHR
mechanics — only score changes that cross top-N boundaries shift
category exposure.  The invalidated users are returned for the owner
to refresh: a serving shard refills their lists in one block before it
acks the push, so a push refreshes the lists it invalidates and
:attr:`CacheStats.puts` counts those refills.

Entries are rows of slot arrays, not per-user objects, so one push
decides every cached user with array operations: a catalog-sized mask
of the updated ids, indexed by all heads at once, finds the head hits,
and one comparison against the thresholds finds the rows an update
reaches.  Only those reached rows without a head hit visit the Python
seen-item sets.  A batch of requests uses the same arrays:
:meth:`lookup_many` counts its lookups, :meth:`put_many` stores the
missing users' lists as one block and :meth:`take` gathers the served
heads, each leaving the state its per-user loop would.

Seen-item masking follows :meth:`Recommender.top_n`: entries are
expected to be computed with train positives excluded, and the per-user
positive sets passed at construction keep updated-but-seen items from
triggering spurious invalidations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Set

import numpy as np


@dataclass
class CacheStats:
    """Counters of one :class:`TopNCache` lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0  # lists stored, refills after a push included
    invalidations: int = 0  # entries dropped by feature updates
    update_batches: int = 0  # apply_update calls

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalidations": self.invalidations,
            "update_batches": self.update_batches,
            "hit_rate": self.hit_rate,
        }


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` copied into the head of a ``rows``-row uninitialised array."""
    grown = np.empty((rows,) + array.shape[1:], dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


class TopNCache:
    """Cache of per-user top-N lists keyed by user id.

    Entries live in slots of parallel arrays — ``items (cap, n)``
    (padded past each list's length with the out-of-catalog id
    ``num_items``), ``length (cap,)`` and ``threshold (cap,)`` — that
    grow geometrically; a user→slot dict keeps insertion order and a
    free list recycles the slots of dropped entries.

    Parameters
    ----------
    n:
        List length the cache stores (the service's serving cutoff).
    num_items:
        Catalog size (bounds-checks cached ids).
    seen_items:
        Optional per-user collections of train-positive item ids
        (``feedback.positive_sets()``); used to ignore updates to items
        a user can never be recommended.
    """

    def __init__(
        self,
        n: int,
        num_items: int,
        seen_items: Optional[Sequence[Set[int]]] = None,
    ) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if num_items <= 0:
            raise ValueError("num_items must be positive")
        self.n = min(n, num_items)
        self.num_items = num_items
        self._seen: Optional[Sequence[Set[int]]] = seen_items
        self.stats = CacheStats()
        self.clear()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, user: int) -> bool:
        return int(user) in self._slot_of

    def cached_users(self) -> List[int]:
        """User ids with a live entry, in insertion order."""
        return list(self._slot_of)

    def get(self, user: int) -> Optional[np.ndarray]:
        """Cached top-N items for ``user`` (a copy), or None on miss."""
        slot = self._slot_of.get(int(user))
        if slot is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return self._items[slot, : self._length[slot]].copy()

    def put(self, user: int, items: np.ndarray, scores: np.ndarray) -> None:
        """Store a freshly computed list with its aligned scores."""
        self.put_many([user], np.asarray(items)[None], np.asarray(scores)[None])

    def lookup_many(self, users) -> np.ndarray:
        """Count a block of lookups as ``get``, then ``put`` on a miss, would.

        The first lookup of an uncached user misses; every other lookup
        hits, a user repeated after its miss included.  Returns the
        users that missed — distinct, in first-occurrence order — for
        the caller to :meth:`put_many`.
        """
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        slot_of = self._slot_of
        missing = [user for user in dict.fromkeys(users.tolist()) if user not in slot_of]
        self.stats.misses += len(missing)
        self.stats.hits += users.size - len(missing)
        return np.array(missing, dtype=np.int64)

    def take(self, users, n: int) -> np.ndarray:
        """The first ``n`` cached items of each of ``users``: ``(len(users), n)``.

        Reads without counting lookups (:meth:`lookup_many` counts them);
        every user must hold an entry at least ``n`` long.
        """
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        try:
            slots = np.fromiter(
                map(self._slot_of.__getitem__, users.tolist()),
                dtype=np.int64,
                count=users.size,
            )
        except KeyError as exc:
            raise ValueError(f"user {exc.args[0]} has no cached entry") from None
        if not 1 <= n <= self.n or (self._length[slots] < n).any():
            raise ValueError(f"n must be in [1, {self.n}] and within every entry")
        return self._items[slots, :n]

    def put_many(self, users, items: np.ndarray, scores: np.ndarray) -> None:
        """Store a block of lists, row ``i`` for ``users[i]``.

        Means storing the rows one after another — slots handed out in
        first-occurrence order, a repeated user's last row kept, ``puts``
        counted per row — with the block validated once and written into
        the slot arrays with one fancy assignment per array.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if (
            users.ndim != 1
            or items.ndim != 2
            or items.shape != scores.shape
            or items.shape[0] != users.size
        ):
            raise ValueError(
                "items and scores must be aligned (len(users), length) blocks"
            )
        if not users.size:
            return
        length = items.shape[1]
        if length == 0 or length > self.n:
            raise ValueError(f"list length must be in [1, {self.n}]")
        if items.min() < 0 or items.max() >= self.num_items:
            raise ValueError("items reference ids outside the catalog")
        if np.any(np.diff(scores, axis=1) > 0):
            raise ValueError("scores must be non-increasing (best first)")
        last_row = {user: row for row, user in enumerate(users.tolist())}
        slots = np.empty(len(last_row), dtype=np.int64)
        for i, user in enumerate(last_row):
            slot = self._slot_of.get(user)
            if slot is None:
                slot = self._free.pop() if self._free else self._new_slot()
                self._slot_of[user] = slot
            slots[i] = slot
        rows = np.fromiter(last_row.values(), dtype=np.int64, count=slots.size)
        self._items[slots, :length] = items[rows]
        self._items[slots, length:] = self.num_items
        self._length[slots] = length
        self._threshold[slots] = scores[rows, -1]
        self.stats.puts += users.size

    def _new_slot(self) -> int:
        """The next never-used slot, doubling the arrays when full."""
        slot = self._used
        if slot == self._threshold.size:
            cap = max(16, 2 * slot)
            self._items = _grown(self._items, cap)
            self._length = _grown(self._length, cap)
            self._threshold = _grown(self._threshold, cap)
        self._used += 1
        return slot

    def invalidate(self, users) -> int:
        """Drop entries for ``users``; returns how many were removed."""
        removed = 0
        for user in np.atleast_1d(np.asarray(users, dtype=np.int64)):
            slot = self._slot_of.pop(int(user), None)
            if slot is not None:
                self._free.append(slot)
                removed += 1
        return removed

    def clear(self) -> None:
        """Drop every entry and release the slot arrays."""
        self._slot_of: Dict[int, int] = {}
        self._free: List[int] = []
        self._used = 0  # slots ever handed out; the rest are unused capacity
        self._items = np.empty((0, self.n), dtype=np.int64)
        self._length = np.empty(0, dtype=np.int64)
        self._threshold = np.empty(0, dtype=np.float64)

    # ------------------------------------------------------------------ #
    def apply_update(
        self,
        users: Sequence[int],
        item_ids: np.ndarray,
        new_scores: np.ndarray,
    ) -> List[int]:
        """Invalidate exactly the entries a feature update can change.

        Parameters
        ----------
        users:
            Cached user ids (a snapshot from :meth:`cached_users`).
        item_ids:
            Updated item ids.
        new_scores:
            Post-update scores of shape ``(len(users), len(item_ids))``,
            row-aligned with ``users`` (from
            :meth:`~repro.serving.sharded.scorer.SharedScorer.score_items`).

        Returns the list of invalidated user ids, in ``users`` order.
        Their entries are dropped here; the caller refreshes them (a
        serving shard refills them with :meth:`put_many` before it acks
        the push).
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        new_scores = np.asarray(new_scores, dtype=np.float64)
        if new_scores.shape != (len(users), item_ids.shape[0]):
            raise ValueError("new_scores must be (len(users), len(item_ids))")
        if item_ids.size and (item_ids.min() < 0 or item_ids.max() >= self.num_items):
            raise ValueError("item_ids reference ids outside the catalog")
        self.stats.update_batches += 1

        users = np.asarray(users, dtype=np.int64).reshape(-1)
        slots = np.fromiter(
            map(self._slot_of.get, users.tolist(), repeat(-1)),
            dtype=np.int64,
            count=users.size,
        )
        cached = np.flatnonzero(slots >= 0)
        slots = slots[cached]
        # A served item changed score: rank/threshold may shift.
        updated = np.zeros(self.num_items + 1, dtype=bool)  # last: padding
        updated[item_ids] = True
        drop = updated[self._items[slots]].any(axis=1)
        # An updated item reaches the threshold: it may climb into the head
        # unless it is one of the user's train positives.
        reaches = new_scores[cached] >= self._threshold[slots][:, None]
        climbs = reaches.any(axis=1) & ~drop
        if self._seen is None:
            drop |= climbs
        else:
            for row in np.flatnonzero(climbs):
                seen = self._seen[int(users[cached[row]])]
                candidates = item_ids[reaches[row]].tolist()
                drop[row] = any(item not in seen for item in candidates)
        # A user listed twice is dropped once, at its first triggering row.
        invalidated = list(dict.fromkeys(users[cached[drop]].tolist()))
        for user in invalidated:
            self._free.append(self._slot_of.pop(user))
        self.stats.invalidations += len(invalidated)
        return invalidated
