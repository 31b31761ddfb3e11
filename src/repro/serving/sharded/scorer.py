"""Zero-copy shard scorer over a published item-side array bank.

The one serving-time scorer.  Offline evaluation calls ``score_all()``
and materialises the full user×item matrix; a running service cannot.
:func:`compute_item_side` takes, once per deployment, the item side of
a fitted BPR-family model (:meth:`~repro.recommenders.Recommender.item_side`:
item biases/factors, and for VBPR/AMR the features' ``F·E``, ``F·β``
and ``E``/``β`` themselves, needed to fold feature *updates* in; or
MostPop's popularity vector).  :class:`SharedScorer` then answers
per-user-block requests for one shard through the recommenders' one
scoring kernel, :func:`~repro.recommenders.factor_scores`, with small
``(B, K) @ (K, |I|)`` GEMMs against read-only views of that bank
(shared memory in worker processes, an in-process snapshot for local
shards) plus the shard's own rows of the user side.

Attack-driven updates never write the shared bank — it is immutable by
construction.  Instead each shard keeps a sparse *overlay* of updated
item rows: sorted, C-contiguous arrays of the overlaid ids and their
``F·E`` rows and ``F·β`` values (all that scoring reads of a pushed
feature row), merged in place by each push (last write wins).  Scoring
patches exactly the overlaid columns by running the same kernel over an
item side sliced to those columns, so a fleet of any shard count serves
bitwise-identical lists.
Non-visual models (BPR-MF, MostPop) accept updates as recorded no-ops:
image perturbations cannot move their scores, the attack-immune control
of the paper (§III-A).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from ...recommenders.base import COLUMN_ARRAYS, Recommender, factor_scores
from ...recommenders.vbpr import visual_item_terms
from .shm import ArrayBank


def check_item_ids(item_ids, num_items: int) -> np.ndarray:
    """``item_ids`` as a non-empty 1-D int64 array inside ``[0, num_items)``."""
    item_ids = np.atleast_1d(np.asarray(item_ids, dtype=np.int64))
    if item_ids.ndim != 1:
        raise ValueError("item_ids must be a scalar or 1-D sequence")
    if item_ids.size == 0:
        raise ValueError("item_ids must not be empty")
    if item_ids.min() < 0 or item_ids.max() >= num_items:
        raise ValueError(
            f"item_ids must lie in [0, {num_items}); "
            f"got range [{item_ids.min()}, {item_ids.max()}]"
        )
    return item_ids


def check_item_features(item_features, num_rows: int, feature_dim: int) -> np.ndarray:
    """Finite float64 features of shape ``(num_rows, feature_dim)``."""
    item_features = np.asarray(item_features, dtype=np.float64)
    if item_features.shape != (num_rows, feature_dim):
        raise ValueError("item_features must have shape (len(item_ids), D)")
    if not np.isfinite(item_features).all():
        raise ValueError("item_features contain non-finite values")
    return item_features


def compute_item_side(
    recommender, features: Optional[np.ndarray] = None
) -> Dict[str, np.ndarray]:
    """The item side of a fitted ``recommender``, ready to publish.

    The arrays are :meth:`~repro.recommenders.Recommender.item_side`'s,
    the model's own: :meth:`ArrayBank.snapshot` and the shared-memory
    bundle make the one publication copy, which isolates the bank from
    later writes to the model or to ``features`` (which defaults to the
    features the model trained on).
    """
    if not isinstance(recommender, Recommender):
        raise TypeError(
            "sharded serving supports BPRMF, VBPR/AMR and MostPop; "
            f"got {type(recommender).__name__}"
        )
    if not recommender.is_fitted:
        raise RuntimeError("recommender must be fitted before publication")
    return recommender.item_side(features)


class SharedScorer:
    """One shard's scoring engine: shared item side + owned user slice.

    Parameters
    ----------
    bank:
        Read-only item-side arrays (from :func:`compute_item_side`, via
        shm or an in-process snapshot).
    num_users / num_items:
        Global universe sizes (user ids stay global everywhere).
    user_ids:
        The global user ids this shard owns.
    user_side:
        The owned rows of the model's user side
        (:meth:`~repro.recommenders.Recommender.user_side`), each array
        aligned with ``user_ids``; empty for MostPop.
    """

    def __init__(
        self,
        bank: ArrayBank,
        num_users: int,
        num_items: int,
        user_ids: np.ndarray,
        user_side: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        self.bank = bank
        self.num_users = num_users
        self.num_items = num_items
        self.is_visual = "visual_items" in bank
        self.feature_updates = 0  # update calls, including non-visual no-ops

        user_ids = np.asarray(user_ids, dtype=np.int64)
        if user_ids.ndim != 1 or user_ids.size == 0:
            raise ValueError("user_ids must be a non-empty 1-D array")
        self.user_ids = user_ids
        # Global-id -> local-row translation; -1 marks "not owned".
        self._row_of = np.full(num_users, -1, dtype=np.int64)
        self._row_of[user_ids] = np.arange(user_ids.size, dtype=np.int64)

        self._user_side = {
            name: np.asarray(array, dtype=np.float64)
            for name, array in (user_side or {}).items()
        }
        for name, array in self._user_side.items():
            if array.shape[0] != user_ids.size:
                raise ValueError(f"user-side {name!r} rows must align with user_ids")

        # The sparse overlay of updated items: sorted ids and, for visual
        # kinds, row-aligned with them, ``F·E`` rows and ``F·β`` values.
        self._overlay_ids = np.empty(0, dtype=np.int64)
        if self.is_visual:
            self._overlay_visual = np.empty((0, bank["embedding"].shape[1]))
            self._overlay_bias = np.empty(0)

    # ------------------------------------------------------------------ #
    # Validation / translation
    # ------------------------------------------------------------------ #
    def owns(self, user: int) -> bool:
        return 0 <= int(user) < self.num_users and self._row_of[int(user)] >= 0

    def _rows(self, user_ids) -> np.ndarray:
        user_ids = np.atleast_1d(np.asarray(user_ids, dtype=np.int64))
        if user_ids.ndim != 1 or user_ids.size == 0:
            raise ValueError("user_ids must be a non-empty scalar or 1-D sequence")
        if user_ids.min() < 0 or user_ids.max() >= self.num_users:
            raise ValueError(f"user_ids must lie in [0, {self.num_users})")
        rows = self._row_of[user_ids]
        if (rows < 0).any():
            foreign = user_ids[rows < 0]
            raise ValueError(
                f"users {foreign[:8].tolist()} are not owned by this shard"
            )
        return rows

    @property
    def overlay_size(self) -> int:
        return int(self._overlay_ids.size)

    def _user_rows(self, rows: np.ndarray) -> Dict[str, np.ndarray]:
        """The user side of the owned local ``rows``."""
        return {name: array[rows] for name, array in self._user_side.items()}

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score_block(self, user_ids) -> np.ndarray:
        """Scores ``(len(user_ids), num_items)`` for owned users."""
        rows = self._rows(user_ids)
        users = self._user_rows(rows)
        scores = factor_scores(users, self.bank, rows.size)
        if self._overlay_ids.size:
            scores[:, self._overlay_ids] = self._score_overlaid_columns(users, rows.size)
        return scores

    def _score_overlaid_columns(
        self, users: Dict[str, np.ndarray], num_rows: int
    ) -> np.ndarray:
        """Score the overlaid columns from the overlay's own visual rows."""
        ids = self._overlay_ids
        overlaid = {
            "item_bias": self.bank["item_bias"][ids],
            "item_factors": self.bank["item_factors"][ids],
            "visual_items": self._overlay_visual,
            "visual_bias_scores": self._overlay_bias,
        }
        return factor_scores(users, overlaid, num_rows)

    def score_items(self, user_ids, item_ids) -> np.ndarray:
        """Scores of selected columns (the cache-invalidation path)."""
        item_ids = check_item_ids(item_ids, self.num_items)
        rows = self._rows(user_ids)
        columns = {
            name: self.bank[name][item_ids] for name in COLUMN_ARRAYS if name in self.bank
        }
        ids = self._overlay_ids
        if ids.size:
            pos = np.minimum(np.searchsorted(ids, item_ids), ids.size - 1)
            hit = ids[pos] == item_ids
            columns["visual_items"][hit] = self._overlay_visual[pos[hit]]
            columns["visual_bias_scores"][hit] = self._overlay_bias[pos[hit]]
        return factor_scores(self._user_rows(rows), columns, rows.size)

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def update_item_features(self, item_ids, item_features) -> bool:
        """Fold new features for ``item_ids`` into this shard's view.

        Returns True when scores moved (visual models).  Non-visual
        kinds record the call and return False — image perturbations
        cannot move their scores.  With duplicate ids the last write
        wins.
        """
        item_ids = check_item_ids(item_ids, self.num_items)
        self.feature_updates += 1
        if not self.is_visual:
            return False
        item_features = check_item_features(
            item_features, item_ids.size, self.bank["embedding"].shape[0]
        )
        visual_rows, bias_rows = visual_item_terms(
            item_features, self.bank["embedding"], self.bank["visual_bias"]
        )
        # Last write wins: keep each pushed id's final row only.
        last = item_ids.size - 1 - np.unique(item_ids[::-1], return_index=True)[1]
        item_ids = item_ids[last]
        self._grow_overlay(item_ids)
        pos = np.searchsorted(self._overlay_ids, item_ids)
        self._overlay_visual[pos] = visual_rows[last]
        self._overlay_bias[pos] = bias_rows[last]
        return True

    def _grow_overlay(self, item_ids: np.ndarray) -> None:
        """Add rows for the not-yet-overlaid ``item_ids``, keeping ids sorted.

        The new rows are left for the caller to fill.
        """
        ids = np.union1d(self._overlay_ids, item_ids)
        if ids.size == self._overlay_ids.size:
            return
        keep = np.searchsorted(ids, self._overlay_ids)
        for name in ("_overlay_visual", "_overlay_bias"):
            old = getattr(self, name)
            grown = np.empty((ids.size,) + old.shape[1:])
            grown[keep] = old
            setattr(self, name, grown)
        self._overlay_ids = ids
