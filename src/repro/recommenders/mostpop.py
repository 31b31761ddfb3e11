"""MostPop — non-personalised popularity baseline.

Scores every item by its training interaction count, identically for
all users.  Two roles in the reproduction:

* a sanity floor for ranking evaluation (VBPR must beat it), and
* an **attack-immune control**: its scores ignore images entirely, so a
  TAaMR perturbation cannot move its CHR — the contrast that isolates
  the visual pathway as the vulnerability (paper §III-A).
"""

from __future__ import annotations

import numpy as np

from ..data.interactions import ImplicitFeedback
from .base import Recommender


class MostPop(Recommender):
    """Popularity-ranking recommender (user-independent scores)."""

    STATE_FIELDS = ("item_counts",)
    ITEM_FIELDS = ("item_counts",)

    def __init__(self, num_users: int, num_items: int) -> None:
        super().__init__(num_users, num_items)
        self.item_counts = np.zeros(num_items)

    def fit(self, feedback: ImplicitFeedback) -> "MostPop":
        if feedback.num_users != self.num_users or feedback.num_items != self.num_items:
            raise ValueError("feedback universe does not match the model")
        self.item_counts = feedback.item_interaction_counts().astype(np.float64)
        self._fitted = True
        return self

    def score_all(self) -> np.ndarray:
        self._require_fitted()
        return np.broadcast_to(
            self.item_counts[None, :], (self.num_users, self.num_items)
        ).copy()

