"""SSIM — Structural Similarity Index (Wang et al., 2004; paper eq. 12).

Computed per local window and averaged, as the paper describes:
``SSIM(w, w*) = (2 μ_w μ_w* + k1)(2 σ_ww* + k2) /
((μ_w² + μ_w*² + k1)(σ_w² + σ_w*² + k2))``.

This implementation uses the standard uniform sliding window (default
7×7 to suit small images; 8×8 windows on 32×32 images still yield many
samples) applied channel-wise and averaged.  Values lie in [-1, 1] with
1 = perfect structural identity.

:func:`ssim` scores one image; :func:`batch_ssim` scores a whole NCHW
batch with one strided window view per block of images and returns the
same bytes as a loop of :func:`ssim` calls.  An attack grid compares one
clean cohort against several adversarial versions (one per ε rung), so
the clean side's window statistics are computed once: build one
:func:`ssim_reference` and pass it to every :func:`batch_ssim` call.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

#: Standard SSIM stabilisation constants for dynamic range L=1.
K1 = 0.01
K2 = 0.03

#: Window elements per block of a batched computation (float64: 4 MB),
#: bounding the window copies' memory on large images and cohorts.
_BLOCK_ELEMENTS = 1 << 19


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


def _batch_windows(images: np.ndarray, window: int) -> np.ndarray:
    """Every patch of every plane of an NCHW batch: ``(N, C, P, window²)``.

    The batched form of :func:`_windows`.  The copy is C-contiguous, so
    each patch is one contiguous row and the reductions over the last
    axis sum it exactly as the per-plane rows are summed.
    """
    n, c, h, w = images.shape
    sn, sc, sy, sx = images.strides
    patches = np.lib.stride_tricks.as_strided(
        images,
        shape=(n, c, h - window + 1, w - window + 1, window, window),
        strides=(sn, sc, sy, sx, sy, sx),
        writeable=False,
    )
    return patches.reshape(n, c, -1, window * window)


def _mean_var(windows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and variance over the last axis of a window copy.

    The variance takes ``ndarray.var``'s own steps (squared deviations
    from the mean, summed, over the count) but reuses the mean instead
    of summing the windows a second time, so both values equal
    ``windows.mean(-1)`` and ``windows.var(-1)`` bit for bit.
    """
    count = windows.shape[-1]
    mean = windows.mean(axis=-1)
    deviations = windows - mean[..., None]
    np.multiply(deviations, deviations, out=deviations)
    return mean, np.add.reduce(deviations, -1) / count


def _check_window(shape: Tuple[int, ...], window: int) -> None:
    if window < 2:
        raise ValueError("window must be >= 2")
    if min(shape[-2], shape[-1]) < window:
        raise ValueError("window larger than image")


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
    _check_window(x.shape, window)

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


class SSIMReference:
    """The clean side of :func:`batch_ssim` calls against one clean batch.

    Holds the clean NCHW batch (as float64) and, once the first
    :func:`batch_ssim` call needs them, its per-window means and
    variances, shape ``(N, C, P)`` over the ``P`` windows of each plane.
    Every later call against the same clean batch reuses them, so only
    the adversarial side's windows are recomputed.
    """

    def __init__(self, images: np.ndarray, window: int) -> None:
        self.images = images
        self.window = window
        self._statistics: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def statistics(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(μ, σ²)`` of every clean window, computed on first use."""
        if self._statistics is None:
            n, c = self.images.shape[:2]
            mean = np.empty((n, c, _window_count(self.images.shape, self.window)))
            var = np.empty_like(mean)
            for block in _blocks(self.images, self.window):
                mean[block], var[block] = _mean_var(
                    _batch_windows(self.images[block], self.window)
                )
            self._statistics = (mean, var)
        return self._statistics


def _as_batch(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)  # lint: allow-float64
    if images.ndim != 4:
        raise ValueError("expected NCHW batches")
    return images


def _window_count(shape: Tuple[int, ...], window: int) -> int:
    return (shape[-2] - window + 1) * (shape[-1] - window + 1)


def _blocks(images: np.ndarray, window: int) -> Iterator[slice]:
    """Image slices whose window copies hold at most ``_BLOCK_ELEMENTS``."""
    per_image = images.shape[1] * _window_count(images.shape, window) * window * window
    step = max(1, _BLOCK_ELEMENTS // max(per_image, 1))
    for start in range(0, images.shape[0], step):
        yield slice(start, start + step)


def ssim_reference(x: np.ndarray, window: int = 7) -> SSIMReference:
    """A reusable clean side for :func:`batch_ssim` against NCHW ``x``."""
    x = _as_batch(x)
    _check_window(x.shape, window)
    return SSIMReference(x, window)


def batch_ssim(
    x: np.ndarray,
    y: np.ndarray,
    window: int = 7,
    dynamic_range: float = 1.0,
    reference: Optional[SSIMReference] = None,
) -> np.ndarray:
    """Per-image SSIM over NCHW batches; equal to :func:`ssim` per image.

    ``reference`` (``ssim_reference(x, window)``) carries the clean
    side's window statistics, so a caller scoring several adversarial
    batches against one clean batch computes them once.
    """
    y = _as_batch(y)
    if np.shape(x) != y.shape:
        raise ValueError("batches must have identical shapes")
    if reference is None:
        reference = ssim_reference(x, window)
    elif reference.window != window or reference.images.shape != y.shape:
        raise ValueError("reference was built for another clean batch or window")
    x = reference.images
    clean_mean, clean_var = reference.statistics()

    c1 = (K1 * dynamic_range) ** 2
    c2 = (K2 * dynamic_range) ** 2
    values = np.empty(x.shape[0])
    for block in _blocks(x, window):
        mu_x = clean_mean[block]
        var_x = clean_var[block]
        mu_y, var_y = _mean_var(_batch_windows(y[block], window))
        # Windows of the product image are the products of the windows,
        # so the clean side needs no window copy for the covariance.
        cov = _batch_windows(x[block] * y[block], window).mean(axis=-1) - mu_x * mu_y
        numerator = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
        denominator = (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
        ratio = numerator / denominator
        values[block] = ratio.reshape(ratio.shape[0], -1).mean(axis=1)
    return values
