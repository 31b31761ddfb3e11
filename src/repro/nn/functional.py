"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

Contains the convolution / pooling primitives (implemented with an
im2col/col2im lowering for speed on CPU) plus softmax-family ops used by
the classifier and by the attack objectives.

All spatial operations use the NCHW layout, matching the convention of
the image substrate (:mod:`repro.data.images`).

The lowering works through NHWC: :func:`im2col` fills its
``(N, H_out, W_out, C, K, K)`` column buffer with one strided slice copy
per kernel offset ``(ky, kx)``, each moving whole channel runs, and
:func:`col2im` scatter-adds the column gradient back in the same
``(ky, kx)`` order.  Columns are pure copies and each image-gradient
pixel sums its window contributions in that fixed order, so conv/pool
outputs and gradients are bitwise those of a direct 6-D strided gather
(pinned by ``tests/nn/test_lowering_parity.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, get_default_dtype

# --------------------------------------------------------------------- #
# im2col / col2im lowering
# --------------------------------------------------------------------- #


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


class Im2colWorkspace:
    """Reusable scratch buffer for im2col column matrices.

    Iterative attacks (10 PGD steps) and batched inference loops lower
    identically-shaped inputs over and over; reusing one buffer per conv
    layer removes a large allocation + page-fault cost from every step.

    The buffer is handed out exclusively: while a recorded backward pass
    still owes a weight gradient computed from the columns, ``acquire``
    returns ``None`` and the caller falls back to a fresh allocation, so
    overlapping forwards (e.g. two forwards before one backward) stay
    correct.
    """

    __slots__ = ("_buffer", "_in_use", "hits", "misses")

    def __init__(self) -> None:
        self._buffer: Optional[np.ndarray] = None
        self._in_use = False
        self.hits = 0
        self.misses = 0

    def acquire(self, shape: Tuple[int, ...], dtype: np.dtype) -> Optional[np.ndarray]:
        """Borrow the scratch buffer, reallocating on shape/dtype change."""
        if self._in_use:
            return None
        if (
            self._buffer is None
            or self._buffer.shape != shape
            or self._buffer.dtype != dtype
        ):
            self._buffer = np.empty(shape, dtype=dtype)
            self.misses += 1
        else:
            self.hits += 1
        self._in_use = True
        return self._buffer

    def release(self) -> None:
        self._in_use = False


def im2col(
    images: np.ndarray,
    kernel: int,
    stride: int,
    pad: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Lower NCHW image patches into a 2-D matrix of flattened windows.

    Returns a matrix of shape ``(N * H_out * W_out, C * kernel * kernel)``
    and the output spatial size ``(H_out, W_out)``: row ``(n, y, x)``
    holds the window at output pixel ``(y, x)`` flattened channel-major,
    ``(c, ky, kx)``.  When ``out`` (a ``(N, H_out, W_out, C, K, K)``
    buffer) is given, the windows are written into it and the returned
    matrix is a view — no allocation.

    The input is viewed as NHWC (copied once into a zero-bordered buffer
    when ``pad > 0``), then each of the K×K kernel offsets fills its
    ``[..., ky, kx]`` plane with one strided slice.  Every slice reads
    whole contiguous channel runs, and conv outputs are NCHW views of
    NHWC data, so the view is free for them.  The entries are plain
    copies of input values, so the matrix is byte-for-byte the one any
    other gather would build.
    """
    n, c, h, w = images.shape
    h_out = _out_size(h, kernel, stride, pad)
    w_out = _out_size(w, kernel, stride, pad)
    if h_out <= 0 or w_out <= 0:
        raise ValueError(
            f"im2col: kernel {kernel} / stride {stride} / pad {pad} too large "
            f"for spatial size {(h, w)}"
        )
    nhwc = images.transpose(0, 2, 3, 1)
    if pad > 0:
        padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=images.dtype)
        padded[:, pad : pad + h, pad : pad + w] = nhwc
    else:
        padded = nhwc
    if out is None:
        out = np.empty((n, h_out, w_out, c, kernel, kernel), dtype=images.dtype)
    y_span = stride * (h_out - 1) + 1
    x_span = stride * (w_out - 1) + 1
    for ky in range(kernel):
        for kx in range(kernel):
            out[..., ky, kx] = padded[:, ky : ky + y_span : stride, kx : kx + x_span : stride]
    return out.reshape(n * h_out * w_out, c * kernel * kernel), (h_out, w_out)


def col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add column gradients back to NCHW image gradients.

    Inverse (adjoint) of :func:`im2col`: overlapping windows accumulate,
    one kernel offset at a time in ``(ky, kx)`` order, into an NHWC
    buffer.  The result is copied out C-contiguous NCHW: callers reduce
    over image gradients (batch norm), and numpy's summation order
    follows memory layout, so an NHWC-backed view would move those sums
    by an ulp.
    """
    n, c, h, w = image_shape
    h_out = _out_size(h, kernel, stride, pad)
    w_out = _out_size(w, kernel, stride, pad)
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    cols6 = cols.reshape(n, h_out, w_out, c, kernel, kernel)
    y_span = stride * (h_out - 1) + 1
    x_span = stride * (w_out - 1) + 1
    for ky in range(kernel):
        for kx in range(kernel):
            padded[:, ky : ky + y_span : stride, kx : kx + x_span : stride] += cols6[..., ky, kx]
    return np.ascontiguousarray(padded[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2))


# --------------------------------------------------------------------- #
# Convolution
# --------------------------------------------------------------------- #


def conv2d(
    images: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    workspace: Optional[Im2colWorkspace] = None,
) -> Tensor:
    """2-D convolution (cross-correlation) on an NCHW tensor.

    ``weight`` has shape ``(C_out, C_in, K, K)``; ``bias`` shape ``(C_out,)``.
    ``workspace`` optionally supplies a reusable im2col scratch buffer
    (see :class:`Im2colWorkspace`); output is bit-identical either way.
    """
    if images.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got ndim={images.ndim}")
    c_out, c_in, kernel, kernel2 = weight.shape
    if kernel != kernel2:
        raise ValueError("conv2d supports square kernels only")
    if images.shape[1] != c_in:
        raise ValueError(
            f"conv2d channel mismatch: input has {images.shape[1]}, weight expects {c_in}"
        )

    n = images.shape[0]
    h_out = _out_size(images.shape[2], kernel, stride, padding)
    w_out = _out_size(images.shape[3], kernel, stride, padding)
    buffer = (
        workspace.acquire((n, h_out, w_out, c_in, kernel, kernel), images.data.dtype)
        if workspace is not None
        else None
    )
    cols, (h_out, w_out) = im2col(images.data, kernel, stride, padding, out=buffer)
    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C_in*K*K)
    out_mat = cols @ w_mat.T  # (N*H_out*W_out, C_out)
    if bias is not None:
        out_mat += bias.data
    out_data = out_mat.reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2)

    image_shape = images.shape

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if weight.requires_grad:
            gw = grad_mat.T @ cols
            weight._accumulate(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=0))
        if images.requires_grad:
            gcols = grad_mat @ w_mat
            images._accumulate(col2im(gcols, image_shape, kernel, stride, padding))
        if buffer is not None:
            workspace.release()

    parents = (images, weight) if bias is None else (images, weight, bias)
    out = Tensor._make(out_data, parents, backward)
    if buffer is not None and not out.requires_grad:
        # No backward will run; hand the buffer back immediately.
        workspace.release()
    return out


# --------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------- #


def max_pool2d(
    images: Tensor,
    kernel: int,
    stride: Optional[int] = None,
    workspace: Optional[Im2colWorkspace] = None,
) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows, NCHW."""
    stride = stride if stride is not None else kernel
    n, c, h, w = images.shape
    h_out = _out_size(h, kernel, stride, 0)
    w_out = _out_size(w, kernel, stride, 0)

    buffer = (
        workspace.acquire((n * c, h_out, w_out, 1, kernel, kernel), images.data.dtype)
        if workspace is not None
        else None
    )
    cols, _ = im2col(
        images.data.reshape(n * c, 1, h, w), kernel, stride, pad=0, out=buffer
    )  # (N*C*H_out*W_out, K*K)
    rows = np.arange(cols.shape[0])
    arg = cols.argmax(axis=1)
    out_flat = cols[rows, arg]
    out_data = out_flat.reshape(n, c, h_out, w_out)
    cols_shape = cols.shape
    cols_dtype = cols.dtype
    if buffer is not None:
        # Backward only needs the argmax indices, not the column values,
        # so the scratch buffer is free again right away.
        workspace.release()

    def backward(grad: np.ndarray) -> None:
        if not images.requires_grad:
            return
        gcols = np.zeros(cols_shape, dtype=cols_dtype)
        gcols[rows, arg] = grad.reshape(-1)
        gimg = col2im(gcols, (n * c, 1, h, w), kernel, stride, pad=0)
        images._accumulate(gimg.reshape(n, c, h, w))

    return Tensor._make(out_data, (images,), backward)


def avg_pool2d(
    images: Tensor,
    kernel: int,
    stride: Optional[int] = None,
    workspace: Optional[Im2colWorkspace] = None,
) -> Tensor:
    """Average pooling over windows, NCHW."""
    stride = stride if stride is not None else kernel
    n, c, h, w = images.shape
    h_out = _out_size(h, kernel, stride, 0)
    w_out = _out_size(w, kernel, stride, 0)

    buffer = (
        workspace.acquire((n * c, h_out, w_out, 1, kernel, kernel), images.data.dtype)
        if workspace is not None
        else None
    )
    cols, _ = im2col(images.data.reshape(n * c, 1, h, w), kernel, stride, pad=0, out=buffer)
    out_data = cols.mean(axis=1).reshape(n, c, h_out, w_out)
    window = kernel * kernel
    if buffer is not None:
        workspace.release()

    def backward(grad: np.ndarray) -> None:
        if not images.requires_grad:
            return
        gcols = np.repeat(grad.reshape(-1, 1), window, axis=1) / window
        gimg = col2im(gcols, (n * c, 1, h, w), kernel, stride, pad=0)
        images._accumulate(gimg.reshape(n, c, h, w))

    return Tensor._make(out_data, (images,), backward)


def global_avg_pool2d(images: Tensor) -> Tensor:
    """Global average pooling: NCHW → NC.

    This is the paper's feature layer ``e`` — "the output of the global
    average pooling right after the convolutional part" (§IV-A5) — the
    layer whose activations feed the multimedia recommender.
    """
    return images.mean(axis=(2, 3))


# --------------------------------------------------------------------- #
# Softmax family
# --------------------------------------------------------------------- #


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted_max = logits.data.max(axis=axis, keepdims=True)
    shifted = logits - Tensor(shifted_max)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def one_hot(labels: np.ndarray, num_classes: int, dtype=None) -> np.ndarray:
    """Integer labels → one-hot float matrix (module compute dtype)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("one_hot expects a 1-D label vector")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype or get_default_dtype())
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
