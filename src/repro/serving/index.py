"""Per-user top-N cache with attack-driven fine-grained invalidation.

A served top-N list stays valid until some item's score change could
alter it.  The cache tracks, per cached user, the *head* (the N served
items, best first, with their scores) and a *threshold* — the score of
the N-th item.  When item features are pushed (:meth:`apply_update`),
a cached list is invalidated only if

* an updated item currently sits in the head (its new score may demote
  or reorder it), or
* an updated item's new score reaches the threshold (``>=`` — ties are
  treated conservatively) and the item is not a train positive of the
  user, so it could enter the head.

Everything else keeps serving from cache: a perturbation that moves a
sock's score from rank 900 to rank 500 of a user's ranking costs that
user nothing.  This is the serving-layer mirror of the paper's CHR
mechanics — only score changes that cross top-N boundaries shift
category exposure.

Seen-item masking follows :meth:`Recommender.top_n`: entries are
expected to be computed with train positives excluded, and the per-user
positive sets passed at construction keep updated-but-seen items from
triggering spurious invalidations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np


@dataclass
class CacheStats:
    """Counters of one :class:`TopNCache` lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
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


@dataclass
class _Entry:
    items: np.ndarray  # (N,) best first
    scores: np.ndarray  # (N,) aligned, descending
    head_set: Set[int] = field(init=False)
    threshold: float = field(init=False)

    def __post_init__(self) -> None:
        self.head_set = set(int(i) for i in self.items)
        self.threshold = float(self.scores[-1]) if self.scores.size else -np.inf


class TopNCache:
    """Cache of per-user top-N lists keyed by user id.

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
        self._entries: Dict[int, _Entry] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, user: int) -> bool:
        return int(user) in self._entries

    def cached_users(self) -> List[int]:
        """User ids with a live entry, in insertion order."""
        return list(self._entries)

    def get(self, user: int) -> Optional[np.ndarray]:
        """Cached top-N items for ``user`` (a copy), or None on miss."""
        entry = self._entries.get(int(user))
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry.items.copy()

    def put(self, user: int, items: np.ndarray, scores: np.ndarray) -> None:
        """Store a freshly computed list with its aligned scores."""
        items = np.asarray(items, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if items.ndim != 1 or items.shape != scores.shape:
            raise ValueError("items and scores must be aligned 1-D arrays")
        if items.size == 0 or items.size > self.n:
            raise ValueError(f"list length must be in [1, {self.n}]")
        if items.min() < 0 or items.max() >= self.num_items:
            raise ValueError("items reference ids outside the catalog")
        if np.any(np.diff(scores) > 0):
            raise ValueError("scores must be non-increasing (best first)")
        self._entries[int(user)] = _Entry(items.copy(), scores.copy())
        self.stats.puts += 1

    def invalidate(self, users) -> int:
        """Drop entries for ``users``; returns how many were removed."""
        removed = 0
        for user in np.atleast_1d(np.asarray(users, dtype=np.int64)):
            if self._entries.pop(int(user), None) is not None:
                removed += 1
        return removed

    def clear(self) -> None:
        self._entries.clear()

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

        Returns the list of invalidated user ids (their entries are
        dropped; the next ``get`` misses and triggers a fresh compute).
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        new_scores = np.asarray(new_scores, dtype=np.float64)
        if new_scores.shape != (len(users), item_ids.shape[0]):
            raise ValueError("new_scores must be (len(users), len(item_ids))")
        self.stats.update_batches += 1

        updated_set = set(int(i) for i in item_ids)
        invalidated: List[int] = []
        for row, user in enumerate(users):
            user = int(user)
            entry = self._entries.get(user)
            if entry is None:
                continue
            if not updated_set.isdisjoint(entry.head_set):
                # A served item changed score: rank/threshold may shift.
                del self._entries[user]
                invalidated.append(user)
                continue
            candidates = np.flatnonzero(new_scores[row] >= entry.threshold)
            if candidates.size:
                seen = self._seen[user] if self._seen is not None else ()
                if any(int(item_ids[idx]) not in seen for idx in candidates):
                    # An unseen item can now climb into the head.
                    del self._entries[user]
                    invalidated.append(user)
        self.stats.invalidations += len(invalidated)
        return invalidated
