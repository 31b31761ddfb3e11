"""SSIM — Structural Similarity Index (Wang et al., 2004; paper eq. 12).

Computed per local window and averaged, as the paper describes:
``SSIM(w, w*) = (2 μ_w μ_w* + k1)(2 σ_ww* + k2) /
((μ_w² + μ_w*² + k1)(σ_w² + σ_w*² + k2))``.

This implementation uses the standard uniform sliding window (default
7×7 to suit small images; 8×8 windows on 32×32 images still yield many
samples) applied channel-wise and averaged.  Values lie in [-1, 1] with
1 = perfect structural identity.
"""

from __future__ import annotations

import numpy as np

#: Standard SSIM stabilisation constants for dynamic range L=1.
K1 = 0.01
K2 = 0.03


def _windows(plane: np.ndarray, window: int) -> np.ndarray:
    """Every ``window``×``window`` patch of a 2-D plane, one per row.

    One copy of a 4-D strided view: for a single channel at stride 1 this
    beats the conv lowering's K×K slice copies, whose per-slice cost
    dominates on windows of 49+ pixels.
    """
    h, w = plane.shape
    sy, sx = plane.strides
    patches = np.lib.stride_tricks.as_strided(
        plane,
        shape=(h - window + 1, w - window + 1, window, window),
        strides=(sy, sx, sy, sx),
        writeable=False,
    )
    return patches.reshape(-1, window * window)


def ssim(
    x: np.ndarray,
    y: np.ndarray,
    window: int = 7,
    dynamic_range: float = 1.0,
) -> float:
    """Mean SSIM between two CHW (or HW) images in [0, dynamic_range]."""
    x = np.asarray(x, dtype=np.float64)  # lint: allow-float64
    y = np.asarray(y, dtype=np.float64)  # lint: allow-float64
    if x.shape != y.shape:
        raise ValueError("images must have identical shapes")
    if x.ndim == 2:
        x = x[None]
        y = y[None]
    if x.ndim != 3:
        raise ValueError("expected CHW or HW images")
    if window < 2:
        raise ValueError("window must be >= 2")
    if min(x.shape[1], x.shape[2]) < window:
        raise ValueError("window larger than image")

    c1 = (K1 * dynamic_range) ** 2
    c2 = (K2 * dynamic_range) ** 2

    channels = x.shape[0]
    values = []
    for ch in range(channels):
        wx = _windows(x[ch], window)
        wy = _windows(y[ch], window)
        mu_x = wx.mean(axis=1)
        mu_y = wy.mean(axis=1)
        var_x = wx.var(axis=1)
        var_y = wy.var(axis=1)
        cov = (wx * wy).mean(axis=1) - mu_x * mu_y
        numerator = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
        denominator = (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
        values.append(numerator / denominator)
    return float(np.concatenate(values).mean())


def batch_ssim(
    x: np.ndarray, y: np.ndarray, window: int = 7, dynamic_range: float = 1.0
) -> np.ndarray:
    """Per-image SSIM over NCHW batches."""
    x = np.asarray(x, dtype=np.float64)  # lint: allow-float64
    y = np.asarray(y, dtype=np.float64)  # lint: allow-float64
    if x.shape != y.shape:
        raise ValueError("batches must have identical shapes")
    if x.ndim != 4:
        raise ValueError("expected NCHW batches")
    return np.array(
        [ssim(x[idx], y[idx], window=window, dynamic_range=dynamic_range) for idx in range(x.shape[0])]
    )
