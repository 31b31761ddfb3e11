"""Shared recommender machinery: BPR triplet sampling and the base API.

All models in the paper (BPR-MF, VBPR, AMR) optimise the pairwise BPR
objective (eq. 7) over triplets ``(u, i, j)`` with ``i ∈ I_u^+`` and
``j ∈ I_u^-``.  The sampler and the abstract interface live here so the
three models differ only in their preference predictor and update rule.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Set, Tuple

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


#: The item-side arrays :func:`factor_scores` reads, one entry per item:
#: slicing these scores a subset of the catalog's columns.
COLUMN_ARRAYS = (
    "item_counts",
    "item_bias",
    "item_factors",
    "visual_items",
    "visual_bias_scores",
)


def factor_scores(
    user_side: Mapping[str, np.ndarray],
    item_side: Mapping[str, np.ndarray],
    num_users: int,
) -> np.ndarray:
    """The one scoring kernel: ``(num_users, |columns|)`` preference scores.

    ``item_side`` holds one entry per scored column (the catalog, or any
    slice of :data:`COLUMN_ARRAYS`) and ``user_side`` one row per scored
    user, as :meth:`Recommender.item_side` / :meth:`Recommender.user_side`
    give them.  BPR-MF scores ``b_i + p_u·q_i``; with the visual arrays
    present VBPR/AMR add ``θ_u·(F·E)_i + (F·β)_i`` (paper eq. 6); MostPop,
    which has no user factors, tiles its popularity counts.  Every
    caller shares these expression shapes and this addition order.
    """
    if "item_counts" in item_side:
        counts = item_side["item_counts"]
        return np.broadcast_to(counts[None, :], (num_users, counts.shape[0])).copy()
    scores = (
        item_side["item_bias"][None, :]
        + user_side["user_factors"] @ item_side["item_factors"].T
    )
    if "visual_items" in item_side:
        scores += user_side["visual_user_factors"] @ item_side["visual_items"].T
        scores += item_side["visual_bias_scores"][None, :]
    return scores


class Recommender(ABC):
    """Abstract top-N recommender over a fixed user/item universe.

    Subclasses name their trained float64 parameter arrays in
    ``STATE_FIELDS``; :meth:`state_dict` / :meth:`load_state_dict`
    persist exactly those, checked against :meth:`state_shapes`.
    """

    STATE_FIELDS: Tuple[str, ...]
    #: User-indexed arrays of the scoring kernel (see :meth:`user_side`).
    USER_FIELDS: Tuple[str, ...] = ()
    #: Item-indexed arrays of the scoring kernel (see :meth:`item_side`).
    ITEM_FIELDS: Tuple[str, ...] = ()

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

    def state_shapes(self) -> Dict[str, Tuple[int, ...]]:
        """The shape each ``STATE_FIELDS`` array must have (default: its current one)."""
        return {name: getattr(self, name).shape for name in self.STATE_FIELDS}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> "Recommender":
        """Restore trained parameters; refuses incomplete or foreign state.

        Missing and unexpected keys are named explicitly so a corrupted
        or truncated cache fails with an actionable message instead of
        an opaque ``KeyError``.
        """
        expected = self.state_shapes()
        missing = [name for name in self.STATE_FIELDS if name not in state]
        extra = [name for name in state if name not in self.STATE_FIELDS]
        if missing or extra:
            raise ValueError(
                f"{type(self).__name__} state is not loadable: "
                f"missing keys {missing or 'none'}, unexpected keys {extra or 'none'}; "
                "the cached artifact is corrupted or from an incompatible build"
            )
        for name in self.STATE_FIELDS:
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != expected[name]:
                raise ValueError(
                    f"{type(self).__name__} state field '{name}' has shape "
                    f"{value.shape}, expected {expected[name]}"
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

    def user_side(self, user_ids) -> Dict[str, np.ndarray]:
        """Rows ``user_ids`` of every ``USER_FIELDS`` array (the kernel's user side)."""
        return {name: getattr(self, name)[user_ids] for name in self.USER_FIELDS}

    def item_side(self, features: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
        """The model's own ``ITEM_FIELDS`` arrays (the kernel's item side).

        Only visual models accept replacement ``features``.
        """
        if features is not None:
            raise ValueError(
                f"{type(self).__name__} has no visual pathway; features must be None"
            )
        return {name: getattr(self, name) for name in self.ITEM_FIELDS}

    def score_users(self, user_ids, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Scores of shape ``(len(user_ids), num_items)`` for a user block.

        One :func:`factor_scores` call over this block's user side, so
        serving a handful of users never materialises the full user×item
        matrix.  ``features`` replaces a visual model's item features, as
        in its ``score_all``.
        """
        self._require_fitted()
        user_ids = self._validate_user_ids(user_ids)
        return factor_scores(
            self.user_side(user_ids), self.item_side(features), user_ids.size
        )

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
