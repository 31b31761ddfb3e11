"""Shared recommender machinery: BPR triplet sampling and the base API.

All models in the paper (BPR-MF, VBPR, AMR) optimise the pairwise BPR
objective (eq. 7) over triplets ``(u, i, j)`` with ``i ∈ I_u^+`` and
``j ∈ I_u^-``.  The sampler and the abstract interface live here so the
three models differ only in their preference predictor and update rule.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..data.interactions import ImplicitFeedback
from ..rng import rng_from_seed


class BPRTripletSampler:
    """Uniform BPR triplet sampler with rejection for positives.

    Samples ``(user, positive, negative)`` triplets: a random training
    interaction, plus a negative drawn uniformly from items the user has
    not interacted with.
    """

    def __init__(self, feedback: ImplicitFeedback, seed: int = 0) -> None:
        if feedback.num_train_interactions == 0:
            raise ValueError("cannot sample triplets from empty feedback")
        self.feedback = feedback
        self._rng = rng_from_seed(seed)
        # Flatten (user, item) training pairs for O(1) uniform sampling.
        users: List[int] = []
        items: List[int] = []
        for user, user_items in enumerate(feedback.train_items):
            users.extend([user] * len(user_items))
            items.extend(user_items.tolist())
        self._pair_users = np.array(users, dtype=np.int64)
        self._pair_items = np.array(items, dtype=np.int64)
        self._positive_sets: List[Set[int]] = feedback.positive_sets()

    def sample(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return arrays ``(users, positives, negatives)`` of length ``batch_size``."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        picks = self._rng.integers(0, self._pair_users.shape[0], size=batch_size)
        users = self._pair_users[picks]
        positives = self._pair_items[picks]
        negatives = self._rng.integers(0, self.feedback.num_items, size=batch_size)
        for idx in range(batch_size):
            positives_of_user = self._positive_sets[users[idx]]
            if len(positives_of_user) >= self.feedback.num_items:
                continue  # degenerate user who interacted with everything
            while negatives[idx] in positives_of_user:
                negatives[idx] = self._rng.integers(0, self.feedback.num_items)
        return users, positives, negatives


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class Recommender(ABC):
    """Abstract top-N recommender over a fixed user/item universe.

    Subclasses name their trained float64 parameter arrays in
    ``STATE_FIELDS``; :meth:`state_dict` / :meth:`load_state_dict`
    persist exactly those.
    """

    STATE_FIELDS: Tuple[str, ...]

    def __init__(self, num_users: int, num_items: int) -> None:
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        self.num_users = num_users
        self.num_items = num_items
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @abstractmethod
    def fit(self, feedback: ImplicitFeedback) -> "Recommender":
        """Train the model on implicit feedback."""

    @abstractmethod
    def score_all(self) -> np.ndarray:
        """Predicted preference matrix of shape ``(num_users, num_items)``."""

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Trained parameters, keyed by field name (same idiom as nn.Module)."""
        return {name: getattr(self, name).copy() for name in self.STATE_FIELDS}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> "Recommender":
        """Restore trained parameters; refuses incomplete or foreign state.

        Missing and unexpected keys are named explicitly so a corrupted
        or truncated cache fails with an actionable message instead of
        an opaque ``KeyError``.
        """
        missing = [name for name in self.STATE_FIELDS if name not in state]
        extra = [name for name in state if name not in self.STATE_FIELDS]
        if missing or extra:
            raise ValueError(
                f"{type(self).__name__} state is not loadable: "
                f"missing keys {missing or 'none'}, unexpected keys {extra or 'none'}; "
                "the cached artifact is corrupted or from an incompatible build"
            )
        for name in self.STATE_FIELDS:
            current = getattr(self, name)
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != current.shape:
                raise ValueError(
                    f"{type(self).__name__} state field '{name}' has shape "
                    f"{value.shape}, expected {current.shape}"
                )
        for name in self.STATE_FIELDS:
            setattr(self, name, np.array(state[name], dtype=np.float64, copy=True))
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} used before fit()")

    def _validate_user_ids(self, user_ids) -> np.ndarray:
        """Coerce ``user_ids`` to a 1-D int64 array inside the universe."""
        user_ids = np.atleast_1d(np.asarray(user_ids, dtype=np.int64))
        if user_ids.ndim != 1:
            raise ValueError("user_ids must be a scalar or 1-D sequence")
        if user_ids.size == 0:
            raise ValueError("user_ids must not be empty")
        if user_ids.min() < 0 or user_ids.max() >= self.num_users:
            raise ValueError(
                f"user_ids must lie in [0, {self.num_users}); "
                f"got range [{user_ids.min()}, {user_ids.max()}]"
            )
        return user_ids

    def score_users(self, user_ids) -> np.ndarray:
        """Scores of shape ``(len(user_ids), num_items)`` for a user block.

        The base implementation slices :meth:`score_all`; models whose
        predictor factorises over users (all of BPR-MF / VBPR / MostPop)
        override it with a direct small-GEMM path so serving a handful
        of users never materialises the full user×item matrix.
        """
        self._require_fitted()
        user_ids = self._validate_user_ids(user_ids)
        return self.score_all()[user_ids]

    @staticmethod
    def _head_of(score_matrix: np.ndarray, n: int) -> np.ndarray:
        """Top-``n`` column indices per row, best first (argpartition head)."""
        # argpartition + sort of the head: O(I + n log n) per user.
        head = np.argpartition(-score_matrix, n - 1, axis=1)[:, :n]
        head_scores = np.take_along_axis(score_matrix, head, axis=1)
        order = np.argsort(-head_scores, axis=1, kind="stable")
        return np.take_along_axis(head, order, axis=1)

    def top_n(
        self,
        n: int,
        feedback: Optional[ImplicitFeedback] = None,
        scores: Optional[np.ndarray] = None,
        user_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Top-``n`` recommended items per user, best first.

        Training positives are excluded when ``feedback`` is provided —
        the paper evaluates recommendation lists of *unknown* items
        (``i ∈ I ∖ I_u^+`` in Definition 5).

        ``user_ids`` restricts the computation to a block of users: the
        returned array has one row per requested user (in request
        order), and only those users' scores are ever materialised
        (via :meth:`score_users`).  ``scores``, when given alongside
        ``user_ids``, may be either the full matrix (rows are sliced)
        or already block-shaped ``(len(user_ids), num_items)``.
        """
        self._require_fitted()
        if n <= 0:
            raise ValueError("n must be positive")
        if user_ids is None:
            score_matrix = np.array(self.score_all() if scores is None else scores, copy=True)
            if score_matrix.shape != (self.num_users, self.num_items):
                raise ValueError("scores have wrong shape")
            if feedback is not None:
                for user, items in enumerate(feedback.train_items):
                    score_matrix[user, items] = -np.inf
            return self._head_of(score_matrix, min(n, self.num_items))

        user_ids = self._validate_user_ids(user_ids)
        if scores is None:
            score_matrix = np.array(self.score_users(user_ids), copy=True)
        else:
            scores = np.asarray(scores)
            if scores.shape == (self.num_users, self.num_items):
                score_matrix = np.array(scores[user_ids], copy=True)
            elif scores.shape == (user_ids.shape[0], self.num_items):
                score_matrix = np.array(scores, copy=True)
            else:
                raise ValueError(
                    "scores must be the full matrix or block-shaped "
                    "(len(user_ids), num_items)"
                )
        if feedback is not None:
            for row, user in enumerate(user_ids):
                score_matrix[row, feedback.train_items[user]] = -np.inf
        return self._head_of(score_matrix, min(n, self.num_items))
