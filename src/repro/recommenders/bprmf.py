"""BPR-MF — Bayesian Personalized Ranking matrix factorisation.

Rendle et al. (UAI 2009).  The pure collaborative-filtering baseline
underneath VBPR: preference ``ŝ_ui = μ + b_u + b_i + p_u·q_i`` trained
with the pairwise BPR loss (paper eq. 7 without the visual terms).
Included because VBPR is defined as "BPR-MF plus visual factors" and the
reproduction needs the substrate model, and because it provides an
attack-free control (its scores cannot be moved by image perturbations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..data.interactions import ImplicitFeedback
from ..rng import rng_from_seed
from .base import BPRTripletSampler, Recommender, sigmoid


@dataclass
class BPRMFConfig:
    """Hyper-parameters for BPR-MF training."""

    factors: int = 16  # K latent dimensions
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 0.05
    regularization: float = 0.01  # λ of eq. 7
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.factors <= 0:
            raise ValueError("factors must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.regularization < 0:
            raise ValueError("regularization must be non-negative")


class BPRMF(Recommender):
    """Latent-factor recommender trained with the BPR pairwise loss."""

    def __init__(
        self, num_users: int, num_items: int, config: Optional[BPRMFConfig] = None
    ) -> None:
        super().__init__(num_users, num_items)
        self.config = config or BPRMFConfig()
        rng = rng_from_seed(self.config.seed)
        scale = self.config.init_scale
        self.user_factors = rng.normal(0, scale, (num_users, self.config.factors))
        self.item_factors = rng.normal(0, scale, (num_items, self.config.factors))
        self.item_bias = np.zeros(num_items)
        self.loss_history: List[float] = []

    #: Trained parameters behind :meth:`state_dict` / :meth:`load_state_dict`.
    STATE_FIELDS = ("user_factors", "item_factors", "item_bias")
    USER_FIELDS = ("user_factors",)
    ITEM_FIELDS = ("item_bias", "item_factors")

    # ------------------------------------------------------------------ #
    def fit(self, feedback: ImplicitFeedback) -> "BPRMF":
        if feedback.num_users != self.num_users or feedback.num_items != self.num_items:
            raise ValueError("feedback universe does not match the model")
        config = self.config
        sampler = BPRTripletSampler(feedback, seed=config.seed + 1)
        batches_per_epoch = max(
            1, feedback.num_train_interactions // config.batch_size
        )
        for _ in range(config.epochs):
            epoch_loss = 0.0
            for _ in range(batches_per_epoch):
                users, positives, negatives = sampler.sample(config.batch_size)
                epoch_loss += self._update(users, positives, negatives)
            self.loss_history.append(epoch_loss / batches_per_epoch)
        self._fitted = True
        return self

    def _update(self, users: np.ndarray, positives: np.ndarray, negatives: np.ndarray) -> float:
        """One SGD step on a batch of triplets; returns the batch BPR loss."""
        config = self.config
        pu = self.user_factors[users]
        qi = self.item_factors[positives]
        qj = self.item_factors[negatives]
        x_uij = (
            self.item_bias[positives]
            - self.item_bias[negatives]
            + np.einsum("bk,bk->b", pu, qi - qj)
        )
        # d(-ln σ(x))/dx = -σ(-x)
        coeff = -sigmoid(-x_uij)
        lr, reg = config.learning_rate, config.regularization

        grad_pu = coeff[:, None] * (qi - qj) + reg * pu
        grad_qi = coeff[:, None] * pu + reg * qi
        grad_qj = -coeff[:, None] * pu + reg * qj
        grad_bi = coeff + reg * self.item_bias[positives]
        grad_bj = -coeff + reg * self.item_bias[negatives]

        # Scatter-add handles repeated users/items inside one batch.
        np.add.at(self.user_factors, users, -lr * grad_pu)
        np.add.at(self.item_factors, positives, -lr * grad_qi)
        np.add.at(self.item_factors, negatives, -lr * grad_qj)
        np.add.at(self.item_bias, positives, -lr * grad_bi)
        np.add.at(self.item_bias, negatives, -lr * grad_bj)
        return float(-np.log(sigmoid(x_uij) + 1e-12).mean())

    # ------------------------------------------------------------------ #
    def score_all(self) -> np.ndarray:
        self._require_fitted()
        return self.item_bias[None, :] + self.user_factors @ self.item_factors.T

