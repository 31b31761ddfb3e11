"""Attack base classes and gradient plumbing.

Both attacks in the paper (FGSM, PGD) need one primitive from the
white-box threat model: the gradient of the classifier's loss with
respect to the *input image*, either toward a chosen target class
(targeted, eq. 5) or away from the true class (untargeted, Def. 3).
:class:`GradientAttack` wraps a :class:`TinyResNet` and exposes that
primitive plus batching; concrete attacks implement :meth:`perturb`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

import numpy as np

from ..nn import Tensor, TinyResNet, cross_entropy, frozen_parameters, get_default_dtype
from .projections import clip_pixels, linf_distance


@dataclass
class AttackResult:
    """Outcome of attacking a batch of images.

    Attributes
    ----------
    adversarial_images:
        The perturbed images, NCHW in [0, 1].
    original_predictions / adversarial_predictions:
        Class indices before and after the attack.
    target_class:
        The attack target (``None`` for untargeted runs).
    epsilon:
        l∞ budget on the [0, 1] pixel scale.
    metadata:
        Execution accounting: ``iterations`` (gradient steps the attack
        ran), ``forwards`` / ``backwards`` (image-passes executed — one
        unit is one image through the network once), and, for ladder
        runs, per-image early-exit steps.  Run manifests aggregate these
        across the grid.
    """

    adversarial_images: np.ndarray
    original_predictions: np.ndarray
    adversarial_predictions: np.ndarray
    epsilon: float
    target_class: Optional[int] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_images(self) -> int:
        return self.adversarial_images.shape[0]

    def success_mask(self) -> np.ndarray:
        """Per-image success: reached the target (targeted) or left the
        original class (untargeted)."""
        if self.target_class is not None:
            return self.adversarial_predictions == self.target_class
        return self.adversarial_predictions != self.original_predictions

    def success_rate(self) -> float:
        """The paper's Table III quantity: fraction of successful images."""
        if self.num_images == 0:
            return 0.0
        if self.target_class is not None:
            # Imported late: evaluation.py imports AttackResult from here.
            from .evaluation import targeted_success_rate

            return targeted_success_rate(self.adversarial_predictions, self.target_class)
        return float(self.success_mask().mean())

    def linf_distances(self, clean_images: np.ndarray) -> np.ndarray:
        return linf_distance(self.adversarial_images, clean_images)


@contextmanager
def attack_mode(model) -> Iterator[None]:
    """Eval mode with frozen parameters; both restored on exit.

    The threat model only needs ∂loss/∂x; freezing the weights skips
    every weight-gradient GEMM in the backward pass.  Training mode and
    each parameter's ``requires_grad`` come back as they were, also when
    the body raises.
    """
    was_training = model.training
    model.eval()
    try:
        with frozen_parameters(model):
            yield
    finally:
        if was_training:
            model.train()


class GradientAttack(ABC):
    """Base class for white-box gradient attacks on a TinyResNet."""

    def __init__(self, model: TinyResNet, epsilon: float, batch_size: int = 32) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not epsilon <= 1.0:
            raise ValueError("epsilon is on the [0, 1] pixel scale; use epsilon_from_255")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.epsilon = epsilon
        self.batch_size = batch_size
        # Execution accounting (image-passes); attack() snapshots these
        # around each run so AttackResult.metadata reports per-run deltas.
        self._forward_passes = 0
        self._backward_passes = 0

    # ------------------------------------------------------------------ #
    def loss_gradient(
        self, images: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """∇_x L_F(θ, x, labels) for a batch of images (eval mode)."""
        with attack_mode(self.model):
            x = Tensor(np.asarray(images, dtype=get_default_dtype()), requires_grad=True)
            logits = self.model(x)
            loss = cross_entropy(logits, labels)
            loss.backward()
        assert x.grad is not None
        self._forward_passes += images.shape[0]
        self._backward_passes += images.shape[0]
        return x.grad

    def _validate_images(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=get_default_dtype())
        if images.ndim != 4:
            raise ValueError("images must be NCHW")
        if images.size and (images.min() < -1e-9 or images.max() > 1 + 1e-9):
            raise ValueError("images must lie in [0, 1]")
        return images

    # ------------------------------------------------------------------ #
    @abstractmethod
    def _perturb_batch(
        self, images: np.ndarray, labels: np.ndarray, targeted: bool, batch_start: int = 0
    ) -> np.ndarray:
        """Return adversarial versions of one batch.

        ``batch_start`` is the absolute index of ``images[0]`` within the
        full attacked set, letting per-image randomness (PGD's random
        start) stay invariant to how the set is split into batches.
        """

    def attack(
        self,
        images: np.ndarray,
        target_class: Optional[int] = None,
        true_labels: Optional[np.ndarray] = None,
        original_predictions: Optional[np.ndarray] = None,
    ) -> AttackResult:
        """Attack a set of images.

        With ``target_class`` the attack is targeted (paper's TAaMR
        setting); otherwise untargeted, moving away from ``true_labels``
        (or the model's predictions when labels are not given).

        ``original_predictions`` optionally supplies the model's clean
        predictions for ``images``.  Grid runs predict the whole catalog
        once and pass slices here, eliminating one full forward pass per
        (scenario × attack × ε) cell; the returned :class:`AttackResult`
        is identical either way.
        """
        images = self._validate_images(images)
        targeted = target_class is not None
        forwards_before = self._forward_passes
        backwards_before = self._backward_passes
        if original_predictions is not None:
            original = np.asarray(original_predictions, dtype=np.int64)
            if original.shape != (images.shape[0],):
                raise ValueError(
                    "original_predictions must be a vector matching the batch size"
                )
        else:
            original = self.model.predict(images, batch_size=self.batch_size)
            self._forward_passes += images.shape[0]
        if target_class is not None:
            if not 0 <= target_class < self.model.num_classes:
                raise ValueError("target_class out of range")
            labels = np.full(images.shape[0], target_class, dtype=np.int64)
        elif true_labels is not None:
            labels = np.asarray(true_labels, dtype=np.int64)
        else:
            # Standard untargeted practice: move away from the model's own
            # predictions — exactly the clean predictions computed above.
            labels = original

        adversarial = np.empty_like(images)
        for start in range(0, images.shape[0], self.batch_size):
            stop = start + self.batch_size
            adversarial[start:stop] = self._perturb_batch(
                images[start:stop], labels[start:stop], targeted, batch_start=start
            )
        adversarial = clip_pixels(adversarial)
        adversarial_predictions = self.model.predict(adversarial, batch_size=self.batch_size)
        self._forward_passes += images.shape[0]

        return AttackResult(
            adversarial_images=adversarial,
            original_predictions=original,
            adversarial_predictions=adversarial_predictions,
            epsilon=self.epsilon,
            target_class=target_class,
            metadata={
                "iterations": int(getattr(self, "num_steps", 1)),
                "forwards": int(self._forward_passes - forwards_before),
                "backwards": int(self._backward_passes - backwards_before),
            },
        )
