"""Shared test utilities: finite-difference gradient checking and tiny fixtures."""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from repro.nn.tensor import Tensor


def numerical_gradient(
    func: Callable[[np.ndarray], float], point: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function at ``point``."""
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    flat = point.reshape(-1)
    grad_flat = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        f_plus = func(point)
        flat[idx] = orig - eps
        f_minus = func(point)
        flat[idx] = orig
        grad_flat[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def check_gradient(
    op: Callable[[Tensor], Tensor],
    value: np.ndarray,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> None:
    """Assert that autograd matches finite differences for ``sum(op(x))``."""
    value = np.asarray(value, dtype=np.float64)
    x = Tensor(value.copy(), requires_grad=True)
    out = op(x)
    out.sum().backward()
    assert x.grad is not None, "autograd produced no gradient"

    def scalar(data: np.ndarray) -> float:
        return float(op(Tensor(data)).data.sum())

    expected = numerical_gradient(scalar, value)
    np.testing.assert_allclose(x.grad, expected, atol=atol, rtol=rtol)


def count_forks(patch) -> list:
    """Wrap ``os.fork`` through ``patch`` (a pytest ``MonkeyPatch``); the
    returned list collects the pid of every child forked from then on."""
    children = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    patch.setattr(os, "fork", counting_fork)
    return children
