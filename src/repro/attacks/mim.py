"""MIM — Momentum Iterative Method (Dong et al., CVPR 2018).

One of the "novel adversarial attacks" the paper's conclusion (§VI)
plans to integrate into TAaMR.  MIM stabilises the iterative sign-step
by accumulating a velocity over the *l1-normalised* gradients::

    g_{t+1} = μ · g_t + ∇_x L / ‖∇_x L‖₁
    x_{t+1} = Π_ε( x_t ∓ α · sign(g_{t+1}) )

The momentum term escapes poor local structure and famously improves
attack *transferability* across models — measured for TAaMR by
``benchmarks/bench_transferability.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import TinyResNet
from .base import GradientAttack
from .projections import clip_pixels, project_linf


def accumulate_velocity(
    velocity: np.ndarray, gradient: np.ndarray, decay: float
) -> np.ndarray:
    """One MIM velocity update: ``μ · g + ∇ / ‖∇‖₁``, normalised per image.

    Shared with the ε-ladder's MIM path so both run the same float ops.
    """
    l1 = np.abs(gradient).reshape(gradient.shape[0], -1).sum(axis=1)
    l1 = np.maximum(l1, 1e-12).reshape(-1, 1, 1, 1)
    return decay * velocity + gradient / l1


class MIM(GradientAttack):
    """Momentum iterative l∞ attack."""

    def __init__(
        self,
        model: TinyResNet,
        epsilon: float,
        num_steps: int = 10,
        step_size: Optional[float] = None,
        decay: float = 1.0,
        batch_size: int = 32,
    ) -> None:
        super().__init__(model, epsilon, batch_size)
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if decay < 0:
            raise ValueError("decay must be non-negative")
        if step_size is not None and step_size <= 0:
            raise ValueError("step_size must be positive")
        self.num_steps = num_steps
        self.step_size = step_size if step_size is not None else epsilon / num_steps
        self.decay = decay

    def _perturb_batch(
        self, images: np.ndarray, labels: np.ndarray, targeted: bool, batch_start: int = 0
    ) -> np.ndarray:
        if self.epsilon == 0.0:
            return images.copy()
        current = images.copy()
        velocity = np.zeros_like(images)
        for _ in range(self.num_steps):
            gradient = self.loss_gradient(current, labels)
            velocity = accumulate_velocity(velocity, gradient, self.decay)
            step = np.sign(velocity) * self.step_size
            current = current - step if targeted else current + step
            current = clip_pixels(project_linf(current, images, self.epsilon))
        return current
