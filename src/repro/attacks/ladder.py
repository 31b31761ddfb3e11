"""Batched ε-ladder attack engine (the fast path behind the attack grid).

The paper's grid re-runs one attack per (scenario × attack × ε) cell.
For a fixed scenario and attack, every cell shares the same cohort (the
classifier-assigned source-category images) and target class — only the
l∞ budget differs.  :class:`EpsilonLadder` exploits that: it attacks the
*whole* cohort as one NCHW tensor, walks the ε ladder in one pass, and
returns one :class:`LadderCell` per budget, each carrying the
adversarial images, the final-step predictions (no redundant predict
pass) and the layer-e features of the adversarial images (harvested
from the same trunk passes, so downstream re-extraction disappears).

Three attacks run on the ladder: FGSM, PGD and MIM (the momentum
member of the multi-step family).  CW and NES have no ladder path; the
grid runs them cell by cell instead
(:func:`repro.experiments.runner.fallback_ladder_cells`).

Two modes:

``exact``
    Shared batching only.  Per-ε outputs are **bitwise identical** to
    running the unbatched :class:`~repro.attacks.base.GradientAttack`
    path cell by cell: gradients are evaluated on the oracle's
    mini-batch chunk grid (input gradients are *not* batch-split
    invariant, unlike forward passes), the ladder merely shares the
    ε-independent work — FGSM's single gradient, PGD's unit random
    start, MIM's first gradient (taken at the clean image) — and merges
    the final predict with feature extraction into one trunk pass.

``warm``
    Adds warm starts and early exits.  Each ε rung starts from the
    previous rung's converged perturbation rescaled into the new ball
    (δ · ε_new/ε_prev, re-projected, re-clipped; MIM's velocity restarts
    at zero), and an image leaves the working set as soon as targeted
    misclassification sticks — its row is frozen and carried forward
    while the active batch compacts.  Results are statistically
    equivalent to ``exact`` (CHR, success rate, visual quality within
    tolerance) but not bitwise.

The model is put in eval mode with frozen parameters once per
:meth:`EpsilonLadder.run`, not once per gradient chunk; both are
restored on exit.

Telemetry: an ``attack_ladder.run`` span wraps the ladder with one
``attack_ladder.epsilon`` child per rung; counters
``attack_ladder.forwards_saved`` / ``attack_ladder.backwards_saved``
record image-passes eliminated relative to the per-cell path and
``attack_ladder.early_exits`` the images retired early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Tensor, cross_entropy, get_default_dtype
from ..telemetry import active_metrics, span
from .base import AttackResult, attack_mode
from .mim import accumulate_velocity
from .projections import clip_pixels, per_image_unit_noise, project_linf

LADDER_MODES = ("exact", "warm")
LADDER_ATTACKS = ("FGSM", "PGD", "MIM")


@dataclass
class LadderCell:
    """One (attack, ε) rung of a ladder run over a cohort.

    ``raw_features`` are the layer-e activations of the adversarial
    images — exactly what ``extract_features`` would recompute from
    ``result.adversarial_images``, harvested here for free.  ``extras``
    is a caller-side memo (e.g. the grid driver caches visual-quality
    metrics there so both recommenders share one computation).
    """

    epsilon: float
    result: AttackResult
    raw_features: np.ndarray
    extras: Dict[str, Any] = field(default_factory=dict)


def _forward_backward(
    model, images: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(∂loss/∂x, logits, layer-e features)`` from one graph.

    Runs the same op sequence as ``GradientAttack.loss_gradient``
    (``fc(features(x))``), so the returned gradient is bitwise identical
    to the per-cell path; the logits and features of the *input* iterate
    come out of the same pass for free.  The caller holds ``model`` in
    eval mode with frozen parameters (see :func:`~repro.attacks.base.attack_mode`).
    """
    x = Tensor(np.asarray(images, dtype=get_default_dtype()), requires_grad=True)
    logits, feats = model.forward_with_features(x)
    loss = cross_entropy(logits, labels)
    loss.backward()
    assert x.grad is not None
    return x.grad, logits.data, feats.data


class EpsilonLadder:
    """Attack one cohort across a whole ε ladder in a single engine run.

    Parameters
    ----------
    model:
        The white-box classifier under attack (an ``ImageClassifier``).
    attack:
        ``"FGSM"``, ``"PGD"`` or ``"MIM"``: the paper's two attacks plus
        the momentum iterative method.  CW and NES have no ladder path.
    epsilons:
        l∞ budgets on the [0, 1] pixel scale, one rung per value.  For
        ``warm`` mode they should ascend (the paper's {2,4,8,16}/255
        does); ``exact`` mode is order-independent.
    mode:
        ``"exact"`` or ``"warm"`` (see module docstring).
    num_steps / step_size / random_start / seed:
        PGD and MIM parameters, as in :class:`~repro.attacks.pgd.PGD`
        and :class:`~repro.attacks.mim.MIM`.  A ``step_size`` of
        ``None`` uses ε/4 per rung for PGD and ε/num_steps for MIM.
        MIM has no random start.
    decay:
        MIM's momentum decay μ (ignored by FGSM and PGD).
    batch_size:
        The oracle's mini-batch chunk grid.  ``exact`` mode evaluates
        gradients in these chunks (input gradients depend on the chunk
        split); forward-only passes use it as a memory bound.
    """

    def __init__(
        self,
        model,
        attack: str = "PGD",
        epsilons: Sequence[float] = (),
        mode: str = "exact",
        num_steps: int = 10,
        step_size: Optional[float] = None,
        random_start: bool = True,
        seed: int = 0,
        batch_size: int = 32,
        decay: float = 1.0,
    ) -> None:
        attack = attack.upper()
        if attack not in LADDER_ATTACKS:
            raise ValueError(f"attack must be one of {LADDER_ATTACKS}")
        if mode not in LADDER_MODES:
            raise ValueError(f"mode must be one of {LADDER_MODES}")
        epsilons = tuple(float(eps) for eps in epsilons)
        if not epsilons:
            raise ValueError("epsilons must be non-empty")
        if any(eps < 0 or eps > 1.0 for eps in epsilons):
            raise ValueError("epsilons are on the [0, 1] pixel scale; use epsilon_from_255")
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if step_size is not None and step_size <= 0:
            raise ValueError("step_size must be positive")
        if decay < 0:
            raise ValueError("decay must be non-negative")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.attack = attack
        self.epsilons = epsilons
        self.mode = mode
        self.num_steps = num_steps
        self.step_size = step_size
        self.random_start = random_start
        self.seed = seed
        self.batch_size = batch_size
        self.decay = decay
        self._forwards = 0
        self._backwards = 0

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        images: np.ndarray,
        target_class: int,
        original_predictions: Optional[np.ndarray] = None,
    ) -> List[LadderCell]:
        """Attack ``images`` toward ``target_class`` at every ε rung."""
        images = self._validate_images(images)
        n = images.shape[0]
        if not 0 <= target_class < self.model.num_classes:
            raise ValueError("target_class out of range")
        if original_predictions is not None:
            original = np.asarray(original_predictions, dtype=np.int64)
            if original.shape != (n,):
                raise ValueError(
                    "original_predictions must be a vector matching the cohort size"
                )
        else:
            original = self.model.predict(images, batch_size=self.batch_size)
            self._forwards += n
        labels = np.full(n, target_class, dtype=np.int64)

        forwards_before, backwards_before = self._forwards, self._backwards
        with span(
            "attack_ladder.run",
            attack=self.attack,
            mode=self.mode,
            images=n,
            epsilons=len(self.epsilons),
        ), attack_mode(self.model):
            if n == 0:
                cells = self._empty_cells(images, original, target_class)
            elif self.attack == "FGSM":
                cells = self._run_fgsm(images, labels, original, target_class)
            elif self.mode == "exact":
                cells = self._run_iterative_exact(images, labels, original, target_class)
            else:
                cells = self._run_iterative_warm(images, labels, original, target_class)
        self._note_savings(
            n,
            forwards=self._forwards - forwards_before,
            backwards=self._backwards - backwards_before,
        )
        return cells

    # ------------------------------------------------------------------ #
    # Shared plumbing
    # ------------------------------------------------------------------ #
    def _validate_images(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=get_default_dtype())
        if images.ndim != 4:
            raise ValueError("images must be NCHW")
        if images.size and (images.min() < -1e-9 or images.max() > 1 + 1e-9):
            raise ValueError("images must lie in [0, 1]")
        return images

    def _chunked_gradient(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """∂loss/∂x evaluated on the oracle's mini-batch chunk grid."""
        grads = []
        for start in range(0, images.shape[0], self.batch_size):
            stop = start + self.batch_size
            grad, _, _ = _forward_backward(self.model, images[start:stop], labels[start:stop])
            grads.append(grad)
        self._forwards += images.shape[0]
        self._backwards += images.shape[0]
        return np.concatenate(grads, axis=0)

    def _predict_with_features(self, images: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        predictions, features = self.model.predict_with_features(
            images, batch_size=self.batch_size
        )
        self._forwards += images.shape[0]
        return np.asarray(predictions, dtype=np.int64), features

    def _step_size_for(self, epsilon: float) -> float:
        if self.step_size is not None:
            return self.step_size
        if self.attack == "MIM":
            return epsilon / self.num_steps
        return epsilon / 4.0

    def _steps_for(self, epsilon: float) -> int:
        """Gradient steps the per-cell oracle takes at ``epsilon``.

        PGD and MIM return the clean images at ε = 0 without a gradient;
        FGSM takes its single step at every budget.
        """
        if self.attack == "FGSM":
            return 1
        return self.num_steps if epsilon > 0.0 else 0

    def _cell_metadata(self, iterations: int, forwards: float, backwards: float) -> Dict[str, Any]:
        return {
            "iterations": int(iterations),
            "forwards": float(forwards),
            "backwards": float(backwards),
            "mode": self.mode,
            "ladder": True,
        }

    def _make_cell(
        self,
        epsilon: float,
        adversarial: np.ndarray,
        original: np.ndarray,
        predictions: np.ndarray,
        features: np.ndarray,
        target_class: int,
        metadata: Dict[str, Any],
    ) -> LadderCell:
        result = AttackResult(
            adversarial_images=adversarial,
            original_predictions=original,
            adversarial_predictions=predictions,
            epsilon=float(epsilon),
            target_class=target_class,
            metadata=metadata,
        )
        return LadderCell(epsilon=float(epsilon), result=result, raw_features=features)

    def _empty_cells(
        self, images: np.ndarray, original: np.ndarray, target_class: int
    ) -> List[LadderCell]:
        dtype = get_default_dtype()
        cells = []
        for eps in self.epsilons:
            cells.append(
                self._make_cell(
                    eps,
                    images.copy(),
                    original,
                    np.zeros(0, dtype=np.int64),
                    np.zeros((0, self.model.feature_dim), dtype=dtype),
                    target_class,
                    self._cell_metadata(0, 0, 0),
                )
            )
        return cells

    def _note_savings(self, n: int, forwards: int, backwards: int) -> None:
        """Record image-passes eliminated vs the per-cell oracle path.

        The baseline counts, per cell, the oracle attack's gradient
        passes plus its final predict and the downstream feature
        re-extraction that the merged ``predict_with_features`` pass
        replaces.
        """
        registry = active_metrics()
        if registry is None or n == 0:
            return
        steps = sum(self._steps_for(eps) for eps in self.epsilons)
        baseline_forwards = n * (steps + 2 * len(self.epsilons))
        baseline_backwards = n * steps
        saved_f = max(0, baseline_forwards - forwards)
        saved_b = max(0, baseline_backwards - backwards)
        if saved_f:
            registry.counter("attack_ladder.forwards_saved").inc(int(saved_f))
        if saved_b:
            registry.counter("attack_ladder.backwards_saved").inc(int(saved_b))

    # ------------------------------------------------------------------ #
    # FGSM: the gradient at the clean image is ε-independent
    # ------------------------------------------------------------------ #
    def _run_fgsm(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        original: np.ndarray,
        target_class: int,
    ) -> List[LadderCell]:
        n = images.shape[0]
        if self.mode == "exact":
            gradient = self._chunked_gradient(images, labels)
        else:
            gradient, _, _ = _forward_backward(self.model, images, labels)
            self._forwards += n
            self._backwards += n
        signs = np.sign(gradient)
        shared = n / len(self.epsilons)
        cells = []
        for eps in self.epsilons:
            with span("attack_ladder.epsilon", attack="FGSM", epsilon=float(eps)):
                # Targeted form (paper eq. 5): descend toward the target.
                step = signs * float(eps)
                adversarial = clip_pixels(images - step)
                predictions, features = self._predict_with_features(adversarial)
                cells.append(
                    self._make_cell(
                        eps,
                        adversarial,
                        original,
                        predictions,
                        features,
                        target_class,
                        self._cell_metadata(1, n + shared, shared),
                    )
                )
        return cells

    # ------------------------------------------------------------------ #
    # PGD and MIM: iterated sign steps
    # ------------------------------------------------------------------ #
    def _unit_noise(self, images: np.ndarray) -> Optional[np.ndarray]:
        # The per-image unit draw is ε-independent: one draw serves every
        # rung, scaled into each ball exactly as the oracle scales it.
        if self.attack == "MIM" or not self.random_start:
            return None
        return per_image_unit_noise(images.shape, self.seed)

    def _start(
        self, images: np.ndarray, unit: Optional[np.ndarray], epsilon: float
    ) -> np.ndarray:
        if unit is None:
            return images.copy()
        return clip_pixels(images + (epsilon * unit).astype(images.dtype, copy=False))

    def _direction(
        self, gradient: np.ndarray, velocity: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(step sign, new velocity)``: PGD steps along the gradient,
        MIM along its accumulated velocity."""
        if velocity is None:
            return np.sign(gradient), None
        velocity = accumulate_velocity(velocity, gradient, self.decay)
        return np.sign(velocity), velocity

    def _run_iterative_exact(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        original: np.ndarray,
        target_class: int,
    ) -> List[LadderCell]:
        n = images.shape[0]
        momentum = self.attack == "MIM"
        unit = self._unit_noise(images)
        attacked_rungs = sum(1 for eps in self.epsilons if eps > 0.0)
        first_velocity = None
        if momentum and attacked_rungs:
            # MIM's first step is taken at the clean image, so its
            # gradient and velocity are ε-independent: computed once here
            # on the oracle's chunk grid and split evenly over the rungs.
            first_velocity = accumulate_velocity(
                np.zeros_like(images), self._chunked_gradient(images, labels), self.decay
            )
        shared = n / attacked_rungs if attacked_rungs else 0.0
        cells = []
        for eps in self.epsilons:
            eps_f = float(eps)
            with span("attack_ladder.epsilon", attack=self.attack, epsilon=eps_f):
                steps = self._steps_for(eps_f)
                current = self._start(images, unit, eps_f) if steps else images.copy()
                step_size = self._step_size_for(eps_f)
                velocity = None
                passes = float(n * steps)
                for step in range(steps):
                    if step == 0 and first_velocity is not None:
                        velocity = first_velocity
                        direction = np.sign(velocity)
                        passes += shared - n  # this rung's share, not n
                    else:
                        gradient = self._chunked_gradient(current, labels)
                        direction, velocity = self._direction(gradient, velocity)
                    current = current - direction * step_size
                    current = clip_pixels(project_linf(current, images, eps_f))
                predictions, features = self._predict_with_features(current)
                cells.append(
                    self._make_cell(
                        eps,
                        current,
                        original,
                        predictions,
                        features,
                        target_class,
                        self._cell_metadata(steps, passes + n, passes),
                    )
                )
        return cells

    def _run_iterative_warm(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        original: np.ndarray,
        target_class: int,
    ) -> List[LadderCell]:
        n = images.shape[0]
        dtype = images.dtype
        momentum = self.attack == "MIM"
        unit = self._unit_noise(images)
        registry = active_metrics()
        previous: Optional[Tuple[float, np.ndarray]] = None
        cells = []
        for eps in self.epsilons:
            eps_f = float(eps)
            with span("attack_ladder.epsilon", attack=self.attack, epsilon=eps_f):
                if eps_f == 0.0:
                    current = images.copy()
                    predictions, features = self._predict_with_features(current)
                    metadata = self._cell_metadata(0, n, 0)
                    metadata["warm_started"] = False
                    metadata["early_exit_steps"] = [-1] * n
                    cells.append(
                        self._make_cell(
                            eps, current, original, predictions, features,
                            target_class, metadata,
                        )
                    )
                    continue
                step_size = self._step_size_for(eps_f)
                warm_started = previous is not None
                if warm_started:
                    prev_eps, prev_adv = previous
                    # Rescale the converged δ into the new ball; the
                    # projection guards direction changes and rounding.
                    delta = (prev_adv - images) * (eps_f / prev_eps)
                    delta = np.clip(delta, -eps_f, eps_f).astype(dtype, copy=False)
                    current = clip_pixels(images + delta)
                else:
                    current = self._start(images, unit, eps_f)
                # MIM's velocity restarts at zero on every rung.
                velocity = np.zeros_like(images) if momentum else None

                predictions = np.empty(n, dtype=np.int64)
                features = np.empty((n, self.model.feature_dim), dtype=get_default_dtype())
                exit_steps = np.full(n, -1, dtype=np.int64)
                active = np.arange(n)
                forwards = backwards = 0
                for step_index in range(self.num_steps):
                    gradient, logits, feats = _forward_backward(
                        self.model, current[active], labels[active]
                    )
                    forwards += active.size
                    backwards += active.size
                    step_predictions = logits.argmax(axis=1)
                    done = step_predictions == target_class
                    if done.any():
                        done_idx = active[done]
                        predictions[done_idx] = step_predictions[done]
                        features[done_idx] = feats[done]
                        exit_steps[done_idx] = step_index
                        active = active[~done]
                        gradient = gradient[~done]
                    if active.size == 0:
                        break
                    # Frozen rows are never touched again: updates write
                    # only through the compacted active index set.
                    if velocity is None:
                        direction, _ = self._direction(gradient, None)
                    else:
                        direction, velocity[active] = self._direction(
                            gradient, velocity[active]
                        )
                    update = current[active] - direction * step_size
                    update = project_linf(update, images[active], eps_f)
                    current[active] = clip_pixels(update)
                if active.size:
                    remaining_predictions, remaining_features = self._predict_with_features(
                        current[active]
                    )
                    predictions[active] = remaining_predictions
                    features[active] = remaining_features
                self._forwards += forwards
                self._backwards += backwards
                exited = int((exit_steps >= 0).sum())
                if registry is not None and exited:
                    registry.counter("attack_ladder.early_exits").inc(exited)
                metadata = self._cell_metadata(
                    self.num_steps, forwards + (n - exited), backwards
                )
                metadata["warm_started"] = bool(warm_started)
                metadata["early_exit_steps"] = [int(s) for s in exit_steps]
                metadata["early_exited"] = exited
                cells.append(
                    self._make_cell(
                        eps, current, original, predictions, features,
                        target_class, metadata,
                    )
                )
                previous = (eps_f, current)
        return cells
