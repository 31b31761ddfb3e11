"""Synthetic implicit-feedback substrate (stand-in for Amazon reviews).

The paper converts Amazon ratings into 0/1 implicit interactions and
keeps users with at least five interactions (§IV-A1).  This module
generates interactions with the same structural properties:

* **category-skewed preferences** — each user draws a Dirichlet affinity
  over categories centred on the global category popularity, so popular
  categories (running shoes, brassieres) dominate recommendation lists
  while the attack's source categories (socks, maillots) sit near the
  bottom: the CHR imbalance that motivates TAaMR;
* **long-tailed item popularity** — items inside a category are sampled
  with Zipf weights;
* **sparsity** — the interaction count per user is a small geometric
  variable with a hard minimum of five, matching the ≥5 filter and the
  paper's |S|/|U| ≈ 7 density.

A leave-one-out split (one held-out positive per user) supports the
ranking evaluation used by BPR-family models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np
from ..rng import rng_from_seed


@dataclass
class ImplicitFeedback:
    """Train/test implicit interactions for a fixed user/item universe."""

    num_users: int
    num_items: int
    train_items: List[np.ndarray]  # per-user sorted arrays of item ids
    test_items: np.ndarray  # one held-out item per user (-1 if none)

    def __post_init__(self) -> None:
        if len(self.train_items) != self.num_users:
            raise ValueError("train_items must have one entry per user")
        if self.test_items.shape != (self.num_users,):
            raise ValueError("test_items must have one entry per user")
        for user, items in enumerate(self.train_items):
            if items.size and (items.min() < 0 or items.max() >= self.num_items):
                raise ValueError(f"user {user} has out-of-range item ids")

    # ------------------------------------------------------------------ #
    @property
    def num_interactions(self) -> int:
        """|S|: total train + test interactions."""
        return int(sum(len(items) for items in self.train_items)) + int(
            (self.test_items >= 0).sum()
        )

    @property
    def num_train_interactions(self) -> int:
        return int(sum(len(items) for items in self.train_items))

    @cached_property
    def _train_flat(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, users, items)``: every train positive, user-major."""
        counts = np.array([items.size for items in self.train_items], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        users = np.repeat(np.arange(self.num_users), counts)
        items = np.concatenate([np.empty(0, dtype=np.int64), *self.train_items])
        return offsets, users, items

    def train_positions(
        self, user_ids: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, items)`` of the train positives, for one fancy-index write.

        Without ``user_ids`` the rows are user ids (a full ``|U|×|I|``
        matrix); with them, row ``r`` is user ``user_ids[r]`` (a block).
        The flat index is built once per feedback object.
        """
        offsets, users, items = self._train_flat
        if user_ids is None:
            return users, items
        starts = offsets[user_ids]
        counts = offsets[np.asarray(user_ids) + 1] - starts
        rows = np.repeat(np.arange(counts.size), counts)
        picks = np.arange(rows.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return rows, items[picks]

    def positive_sets(self) -> List[Set[int]]:
        """Per-user sets of train-positive item ids (I_u^+)."""
        return [set(items.tolist()) for items in self.train_items]

    def to_dense_matrix(self) -> np.ndarray:
        """The user-item feedback matrix S (train positives only)."""
        matrix = np.zeros((self.num_users, self.num_items), dtype=np.float64)
        for user, items in enumerate(self.train_items):
            matrix[user, items] = 1.0
        return matrix

    def item_interaction_counts(self) -> np.ndarray:
        """Number of train interactions per item."""
        counts = np.zeros(self.num_items, dtype=np.int64)
        for items in self.train_items:
            np.add.at(counts, items, 1)
        return counts

    def validate_split(self) -> None:
        """Assert the leave-one-out invariant: test item ∉ train items."""
        for user, items in enumerate(self.train_items):
            test = self.test_items[user]
            if test >= 0 and test in set(items.tolist()):
                raise AssertionError(f"user {user}: test item leaked into train set")


@dataclass
class InteractionConfig:
    """Knobs of the synthetic feedback generator."""

    min_interactions: int = 5
    extra_interactions_mean: float = 2.4  # geometric tail above the minimum
    affinity_concentration: float = 2.0  # Dirichlet sharpness around popularity
    zipf_exponent: float = 1.0  # within-category item popularity decay
    exploration: float = 0.10  # probability of a uniformly random category

    def __post_init__(self) -> None:
        if self.min_interactions < 1:
            raise ValueError("min_interactions must be >= 1")
        if self.extra_interactions_mean < 0:
            raise ValueError("extra_interactions_mean must be >= 0")
        if self.affinity_concentration <= 0:
            raise ValueError("affinity_concentration must be positive")
        if not 0.0 <= self.exploration <= 1.0:
            raise ValueError("exploration must be in [0, 1]")


def generate_feedback(
    item_categories: np.ndarray,
    category_popularity: Sequence[float],
    num_users: int,
    config: Optional[InteractionConfig] = None,
    seed: int = 0,
) -> ImplicitFeedback:
    """Sample an :class:`ImplicitFeedback` dataset.

    Parameters
    ----------
    item_categories:
        Category id per item (defines the item universe).
    category_popularity:
        Normalised global popularity per category id.
    num_users:
        Number of users to simulate (all pass the ≥5 filter by design).
    """
    config = config or InteractionConfig()
    rng = rng_from_seed(seed)
    item_categories = np.asarray(item_categories, dtype=np.int64)
    num_items = item_categories.shape[0]
    num_categories = len(category_popularity)
    if num_items == 0 or num_users <= 0:
        raise ValueError("need at least one item and one user")
    if item_categories.max() >= num_categories:
        raise ValueError("item category id exceeds popularity vector length")

    popularity = np.asarray(category_popularity, dtype=np.float64)
    popularity = popularity / popularity.sum()

    # Pre-compute per-category item pools and Zipf sampling weights.
    category_items: List[np.ndarray] = [
        np.flatnonzero(item_categories == cat) for cat in range(num_categories)
    ]
    category_weights: List[np.ndarray] = []
    for items in category_items:
        if items.size:
            ranks = np.arange(1, items.size + 1, dtype=np.float64)
            weights = ranks ** (-config.zipf_exponent)
            category_weights.append(weights / weights.sum())
        else:
            category_weights.append(np.zeros(0))
    nonempty = np.array([items.size > 0 for items in category_items])
    if not nonempty.any():
        raise ValueError("every category is empty")

    # Renormalise popularity over non-empty categories.
    effective_popularity = np.where(nonempty, popularity, 0.0)
    effective_popularity = effective_popularity / effective_popularity.sum()

    train_items: List[np.ndarray] = []
    test_items = np.full(num_users, -1, dtype=np.int64)

    geometric_p = 1.0 / (1.0 + config.extra_interactions_mean)
    for user in range(num_users):
        alpha = config.affinity_concentration * num_categories * effective_popularity + 1e-6
        affinity = rng.dirichlet(alpha)
        affinity = (1.0 - config.exploration) * affinity + config.exploration / num_categories
        affinity = np.where(nonempty, affinity, 0.0)
        affinity = affinity / affinity.sum()

        target = config.min_interactions + 1 + int(rng.geometric(geometric_p) - 1)
        target = min(target, num_items)
        chosen: Set[int] = set()
        attempts = 0
        while len(chosen) < target and attempts < target * 30:
            attempts += 1
            category = rng.choice(num_categories, p=affinity)
            pool = category_items[category]
            if pool.size == 0:
                continue
            item = int(rng.choice(pool, p=category_weights[category]))
            chosen.add(item)
        if len(chosen) < target:
            # Rejection sampling ran out of attempts (a small catalog whose
            # rare items the affinity barely reaches): top up uniformly so
            # the ≥5 filter holds.  No draw is made when sampling succeeds.
            unchosen = np.setdiff1d(np.arange(num_items), list(chosen))
            chosen.update(rng.choice(unchosen, size=target - len(chosen), replace=False).tolist())
        chosen_array = np.array(sorted(chosen), dtype=np.int64)

        # Leave-one-out: hold out one random positive as the test item.
        holdout_position = rng.integers(0, chosen_array.size)
        test_items[user] = chosen_array[holdout_position]
        train_items.append(np.delete(chosen_array, holdout_position))

    feedback = ImplicitFeedback(
        num_users=num_users,
        num_items=num_items,
        train_items=train_items,
        test_items=test_items,
    )
    feedback.validate_split()
    return feedback
