"""VBPR — Visual Bayesian Personalized Ranking (He & McAuley, AAAI 2016).

The multimedia recommender at the heart of TAaMR.  Preference predictor
(paper eq. 6)::

    ŝ_ui = b_ui + p_u·q_i + θ_u·(Eᵀ f_i) + β·f_i

where ``f_i`` is the CNN feature of item ``i`` (layer ``e``), ``E`` maps
the ``D``-dimensional feature into an ``A``-dimensional visual-factor
space, ``θ_u`` are per-user visual factors and ``β`` a global visual
bias.  Trained by minimising the pairwise BPR loss with L2
regularisation (eq. 7) via SGD over sampled triplets.

The crucial property exploited by the attack: scores depend on item
images only through ``f_i``, so :meth:`score_all` accepts an optional
replacement feature matrix — perturbing images, re-extracting features
and re-scoring requires *no retraining* and exactly models the paper's
prediction-time attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.interactions import ImplicitFeedback
from ..rng import rng_from_seed
from ..telemetry import span
from .base import BPRTripletSampler, Recommender, sigmoid


@dataclass
class VBPRConfig:
    """Hyper-parameters for VBPR (defaults follow the paper's scale-down)."""

    factors: int = 16  # K: collaborative latent dimensions
    visual_factors: int = 16  # A: visual latent dimensions
    epochs: int = 40
    batch_size: int = 256
    learning_rate: float = 0.05
    regularization: float = 0.01  # λ of eq. 7
    visual_regularization: float = 0.001  # lighter λ for E and β (VBPR practice)
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.factors <= 0 or self.visual_factors <= 0:
            raise ValueError("factors and visual_factors must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.regularization < 0 or self.visual_regularization < 0:
            raise ValueError("regularizations must be non-negative")


def visual_item_terms(
    features: np.ndarray, embedding: np.ndarray, visual_bias: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(F·E, F·β)``: the per-item visual terms of eq. 6 for features ``F``.

    The one place they are computed outside training and the
    :meth:`VBPR.score_all` oracle: :meth:`VBPR.item_side` calls it for
    the catalog, the serving scorer for each pushed batch of items.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    return features @ embedding, features @ visual_bias


class VBPR(Recommender):
    """Visual BPR over fixed CNN item features.

    Parameters
    ----------
    num_users, num_items:
        Universe sizes.
    features:
        Clean item features, shape ``(num_items, D)``; these are the
        ``f_i`` the model trains against.
    config:
        Hyper-parameters.
    state:
        Trained parameters to build a fitted model from (checked as
        :meth:`load_state_dict` checks them); the random init is then
        never drawn.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        features: np.ndarray,
        config: Optional[VBPRConfig] = None,
        state: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        super().__init__(num_users, num_items)
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != num_items:
            raise ValueError("features must have shape (num_items, D)")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        self.config = config or VBPRConfig()
        self.features = features
        self.feature_dim = features.shape[1]
        self.loss_history: List[float] = []
        if state is not None:
            self.load_state_dict(state)
            return

        rng = rng_from_seed(self.config.seed)
        scale = self.config.init_scale
        shapes = self.state_shapes()
        self.user_factors = rng.normal(0, scale, shapes["user_factors"])  # P
        self.item_factors = rng.normal(0, scale, shapes["item_factors"])  # Q
        self.visual_user_factors = rng.normal(0, scale, shapes["visual_user_factors"])  # Θ
        self.embedding = rng.normal(0, scale / np.sqrt(self.feature_dim), shapes["embedding"])  # E
        self.visual_bias = np.zeros(shapes["visual_bias"])  # β
        self.item_bias = np.zeros(shapes["item_bias"])

    #: Trained parameters behind :meth:`state_dict` / :meth:`load_state_dict`.
    STATE_FIELDS = (
        "user_factors",
        "item_factors",
        "visual_user_factors",
        "embedding",
        "visual_bias",
        "item_bias",
    )
    USER_FIELDS = ("user_factors", "visual_user_factors")

    @staticmethod
    def shapes_for(
        num_users: int, num_items: int, feature_dim: int, config: VBPRConfig
    ) -> Dict[str, Tuple[int, ...]]:
        """The shape of each ``STATE_FIELDS`` array for these sizes and config."""
        k, a = config.factors, config.visual_factors
        return {
            "user_factors": (num_users, k),
            "item_factors": (num_items, k),
            "visual_user_factors": (num_users, a),
            "embedding": (feature_dim, a),
            "visual_bias": (feature_dim,),
            "item_bias": (num_items,),
        }

    def state_shapes(self) -> Dict[str, Tuple[int, ...]]:
        return self.shapes_for(self.num_users, self.num_items, self.feature_dim, self.config)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, feedback: ImplicitFeedback) -> "VBPR":
        if feedback.num_users != self.num_users or feedback.num_items != self.num_items:
            raise ValueError("feedback universe does not match the model")
        config = self.config
        sampler = BPRTripletSampler(feedback, seed=config.seed + 1)
        batches_per_epoch = max(1, feedback.num_train_interactions // config.batch_size)
        for epoch in range(config.epochs):
            epoch_loss = 0.0
            with span("train.vbpr.epoch", epoch=epoch):
                for _ in range(batches_per_epoch):
                    users, positives, negatives = sampler.sample(config.batch_size)
                    epoch_loss += self._update(users, positives, negatives)
            self.loss_history.append(epoch_loss / batches_per_epoch)
        self._fitted = True
        return self

    def _triplet_scores(
        self,
        users: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
        feature_delta: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """x_uij = ŝ_ui − ŝ_uj for a batch, optionally with perturbed features.

        ``feature_delta``, when given, has shape ``(num_items, D)`` and is
        added to the clean features — the Δ of AMR's adversarial
        regularizer (eq. 8).
        """
        fi = self.features[positives]
        fj = self.features[negatives]
        if feature_delta is not None:
            fi = fi + feature_delta[positives]
            fj = fj + feature_delta[negatives]
        pu = self.user_factors[users]
        theta = self.visual_user_factors[users]
        visual_i = fi @ self.embedding
        visual_j = fj @ self.embedding
        return (
            self.item_bias[positives]
            - self.item_bias[negatives]
            + np.einsum("bk,bk->b", pu, self.item_factors[positives] - self.item_factors[negatives])
            + np.einsum("ba,ba->b", theta, visual_i - visual_j)
            + (fi - fj) @ self.visual_bias
        )

    def _update(self, users: np.ndarray, positives: np.ndarray, negatives: np.ndarray) -> float:
        x_uij = self._triplet_scores(users, positives, negatives)
        coeff = -sigmoid(-x_uij)  # d(-ln σ(x))/dx
        loss = float(-np.log(sigmoid(x_uij) + 1e-12).mean())
        self._apply_gradients(users, positives, negatives, coeff, weight=1.0)
        return loss

    def _apply_gradients(
        self,
        users: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
        coeff: np.ndarray,
        weight: float,
        feature_delta: Optional[np.ndarray] = None,
    ) -> None:
        """SGD step for the BPR loss with the given per-triplet coefficients.

        ``weight`` scales the whole term (γ for AMR's adversarial part);
        ``feature_delta`` makes the gradients use perturbed features, as
        required by AMR's regularizer L_VBPR(T | θ + Δ_adv).
        """
        config = self.config
        lr = config.learning_rate * weight
        reg, vreg = config.regularization, config.visual_regularization

        fi = self.features[positives]
        fj = self.features[negatives]
        if feature_delta is not None:
            fi = fi + feature_delta[positives]
            fj = fj + feature_delta[negatives]
        fdiff = fi - fj

        pu = self.user_factors[users]
        qi = self.item_factors[positives]
        qj = self.item_factors[negatives]
        theta = self.visual_user_factors[users]

        grad_pu = coeff[:, None] * (qi - qj) + reg * pu
        grad_qi = coeff[:, None] * pu + reg * qi
        grad_qj = -coeff[:, None] * pu + reg * qj
        grad_bi = coeff + reg * self.item_bias[positives]
        grad_bj = -coeff + reg * self.item_bias[negatives]
        grad_theta = coeff[:, None] * (fdiff @ self.embedding) + reg * theta
        # E and β are shared by every triplet in the batch; using the summed
        # gradient would multiply their effective learning rate by the batch
        # size and blow up training, so they take the batch-mean gradient.
        # Per-row parameters keep classical per-triplet SGD semantics.
        batch = max(1, coeff.shape[0])
        grad_embedding = (coeff[:, None] * fdiff).T @ theta / batch + vreg * self.embedding
        grad_beta = (coeff[:, None] * fdiff).mean(axis=0) + vreg * self.visual_bias

        np.add.at(self.user_factors, users, -lr * grad_pu)
        np.add.at(self.item_factors, positives, -lr * grad_qi)
        np.add.at(self.item_factors, negatives, -lr * grad_qj)
        np.add.at(self.item_bias, positives, -lr * grad_bi)
        np.add.at(self.item_bias, negatives, -lr * grad_bj)
        np.add.at(self.visual_user_factors, users, -lr * grad_theta)
        self.embedding -= lr * grad_embedding
        self.visual_bias -= lr * grad_beta

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score_all(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Preference matrix; pass ``features`` to re-score perturbed items.

        User-independent constants (global/user biases) are omitted: they
        shift every item of a user equally and cannot change rankings.
        """
        self._require_fitted()
        feats = self.features if features is None else np.asarray(features, dtype=np.float64)
        if feats.shape != (self.num_items, self.feature_dim):
            raise ValueError("features must have shape (num_items, D)")
        visual_items = feats @ self.embedding  # (|I|, A)
        return (
            self.item_bias[None, :]
            + self.user_factors @ self.item_factors.T
            + self.visual_user_factors @ visual_items.T
            + (feats @ self.visual_bias)[None, :]
        )

    def item_side(self, features: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
        """The kernel's item side; ``features`` replaces the clean item features.

        Besides the BPR-MF arrays it carries the features' visual terms
        ``F·E`` / ``F·β`` (:func:`visual_item_terms`), and ``E`` / ``β``
        themselves, which fold later feature updates in.
        """
        feats = np.ascontiguousarray(
            self.features if features is None else features, dtype=np.float64
        )
        if feats.shape != (self.num_items, self.feature_dim):
            raise ValueError("features must have shape (num_items, D)")
        visual_items, visual_bias_scores = visual_item_terms(
            feats, self.embedding, self.visual_bias
        )
        return {
            "item_bias": self.item_bias,
            "item_factors": self.item_factors,
            "visual_items": visual_items,  # F·E, (|I|, A)
            "visual_bias_scores": visual_bias_scores,  # F·β, (|I|,)
            "embedding": self.embedding,
            "visual_bias": self.visual_bias,
        }
