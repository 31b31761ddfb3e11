"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` substrate.  The paper
(TAaMR, DSN 2020) computes targeted adversarial perturbations from the
gradient of a CNN classifier's loss *with respect to the input image*
(eq. 5).  Reproducing that without PyTorch requires a differentiation
engine; :class:`Tensor` provides a dynamic-graph, reverse-mode autodiff
implementation sufficient for training the classifier and for the
white-box attacks.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (``data``) plus an optional
  gradient buffer (``grad``) and a backward closure recorded at creation.
* The graph is dynamic: every differentiable operation returns a fresh
  tensor holding references to its parents and a function that propagates
  the output gradient to them.
* ``backward()`` runs a topological sort from the output and accumulates
  gradients; leaves created with ``requires_grad=True`` end up with a
  populated ``grad``.
* Broadcasting follows numpy semantics; gradients are "unbroadcast"
  (summed over broadcast axes) on the way back.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from ..rng import unseeded_rng
from ..telemetry import profiler as _profiler_module
from ..telemetry.clock import monotonic as _monotonic
from .sanitizer import active as _sanitizer_active

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True

# ------------------------------------------------------------------ #
# Compute-dtype policy
# ------------------------------------------------------------------ #
#
# The engine computes in float32 by default: attack gradients only feed
# a sign() or a feature-space distance, so float64 buys nothing while
# halving memory bandwidth and SIMD throughput of every BLAS call.
# Explicit ``np.float64`` *arrays* are honoured as-is, which is how the
# finite-difference gradient checks keep running in full precision.

_DEFAULT_DTYPE = np.dtype(np.float32)
_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))  # lint: allow-float64


def set_default_dtype(dtype) -> np.dtype:
    """Set the module-wide compute dtype; returns the previous policy.

    Accepts ``np.float32`` or ``np.float64`` (or their string names).
    The policy governs tensors built from Python scalars, lists and
    non-float arrays, plus every numpy entry point of the engine
    (``Parameter`` init, ``predict_proba``, ``loss_gradient``, …).
    """
    resolved = np.dtype(dtype)
    if resolved not in _ALLOWED_DTYPES:
        raise ValueError(f"compute dtype must be float32 or float64, got {resolved}")
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


def get_default_dtype() -> np.dtype:
    """Return the module-wide compute dtype (float32 unless overridden)."""
    return _DEFAULT_DTYPE


class compute_dtype:
    """Context manager pinning the compute dtype for a code region.

    ``with compute_dtype(np.float64): ...`` runs the enclosed forward /
    backward passes in full precision, restoring the previous policy on
    exit.
    """

    def __init__(self, dtype) -> None:
        self._dtype = dtype

    def __enter__(self) -> "compute_dtype":
        self._previous = set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc_info) -> None:
        set_default_dtype(self._previous)


class no_grad:
    """Context manager disabling graph construction (like ``torch.no_grad``).

    Used by evaluation loops and by attack inner loops that only need
    forward passes.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array node in a dynamic autodiff graph."""

    # ``__weakref__`` lets the sanitizer track live graph nodes without
    # keeping them alive (leaked-graph detection).
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "__weakref__")

    # Make numpy defer to our __radd__/__rmul__ etc. for ndarray <op> Tensor.
    __array_priority__ = 100.0

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, (np.ndarray, np.generic)) and data.dtype in (
            np.float32,
            np.float64,  # lint: allow-float64
        ):
            # Explicit float arrays — and numpy scalars produced by
            # reductions like ``arr.sum()`` — keep their precision
            # (gradchecks rely on float64 surviving end to end).
            self.data = np.asarray(data)
        else:
            # Python scalars, lists and integer arrays are dtype-weak:
            # they adopt the module compute policy.
            self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad or any(p.requires_grad for p in _parents) else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction / backward
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output; records graph only when grads are enabled."""
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = parents
            out._backward = backward
            sanitizer = _sanitizer_active()
            if sanitizer is not None:
                sanitizer.record_op(out)
        # The profiler sees every op, including no_grad forward passes:
        # the op identity comes from the (unrecorded) backward closure.
        # Read through the module attribute, not active(): this is the
        # engine's innermost loop and a call costs more than the guard.
        profiler = _profiler_module._PROFILER
        if profiler is not None:
            profiler.record_op(out, backward)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            # In-place accumulate: keeps the buffer (and its dtype) stable
            # instead of reallocating per contribution.
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None, retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors (the usual ``loss.backward()`` case).
        retain_graph:
            By default the graph is freed after the pass (backward closures
            and parent links dropped) so intermediate activations are
            reclaimed promptly and a stale graph can never be re-walked.
            Pass ``True`` to keep it, e.g. to backpropagate a second
            objective through the same forward pass.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} does not match tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        sanitizer = _sanitizer_active()
        profiler = _profiler_module._PROFILER
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                if sanitizer is not None:
                    sanitizer.check_before_backward(node)
                if profiler is None:
                    node._backward(node.grad)
                else:
                    started = _monotonic()
                    node._backward(node.grad)
                    profiler.record_backward(node._backward, _monotonic() - started)
        if not retain_graph:
            for node in topo:
                if node._backward is not None:
                    if sanitizer is not None:
                        sanitizer.notify_freed(node)
                    node._backward = None
                    node._parents = ()

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (np.ndarray, np.generic)) and other.dtype in (
            np.float32,
            np.float64,  # lint: allow-float64
        ):
            return Tensor(other)
        # Python scalars, lists and integer arrays are dtype-weak: they
        # adopt the dtype of the tensor operand (NEP 50 semantics), so a
        # float64 graph is never truncated to the float32 policy and a
        # float32 graph is never promoted.
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Comparisons (non-differentiable, return numpy bool arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > self._coerce(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < self._coerce(other).data

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= self._coerce(other).data

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= self._coerce(other).data

    # ------------------------------------------------------------------ #
    # Nonlinearities and pointwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Differentiable clamp; gradient is 1 inside [low, high], 0 outside."""
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul requires tensors with ndim >= 2")
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(in_shape))

        return Tensor._make(out_data, (self,), backward)

    def flatten_from(self, axis: int = 1) -> "Tensor":
        """Flatten trailing dimensions starting at ``axis`` (NCHW → NC')."""
        lead = self.shape[:axis]
        return self.reshape(*lead, -1)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        in_shape = self.shape
        dtype = self.data.dtype

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros(in_shape, dtype=dtype)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions of an NCHW tensor."""
        if pad == 0:
            return self
        widths = [(0, 0)] * (self.ndim - 2) + [(pad, pad), (pad, pad)]
        out_data = np.pad(self.data, widths)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                sl = tuple(
                    slice(None) if i < self.ndim - 2 else slice(pad, -pad)
                    for i in range(self.ndim)
                )
                self._accumulate(grad[sl])

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % len(in_shape) for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, in_shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = self.data.max(axis=axis, keepdims=True) if axis is not None else out_data
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient equally among ties (rare for float inputs).
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None,
              scale: float = 1.0, requires_grad: bool = False, dtype=None) -> "Tensor":
        rng = rng if rng is not None else unseeded_rng()
        samples = rng.standard_normal(shape).astype(dtype or _DEFAULT_DTYPE) * scale
        return Tensor(samples, requires_grad=requires_grad)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, differentiably."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis, differentiably."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(grad[tuple(sl)])

    return Tensor._make(out_data, tuple(tensors), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
