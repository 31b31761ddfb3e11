"""Byte-for-byte parity of the im2col/col2im lowering with a reference gather.

The reference helpers below are the straightforward lowering: a 6-D
``as_strided`` window view copied out in one ``copyto``, and a loop
scatter-add into a padded NCHW buffer.  The shipping lowering fills its
buffers differently (K×K slice copies through an NHWC view), but it must
produce exactly the same bytes — and so must every conv/pool forward and
gradient built on it.
"""

import itertools

import numpy as np
import pytest

from repro.nn import TinyResNet, compute_dtype, cross_entropy
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def _reference_im2col(images, kernel, stride, pad, out=None):
    n, c, h, w = images.shape
    h_out = (h + 2 * pad - kernel) // stride + 1
    w_out = (w + 2 * pad - kernel) // stride + 1
    if pad > 0:
        images = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    s = images.strides
    windows = np.lib.stride_tricks.as_strided(
        images,
        shape=(n, c, h_out, w_out, kernel, kernel),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    permuted = windows.transpose(0, 2, 3, 1, 4, 5)
    if out is not None:
        np.copyto(out, permuted)
        cols = out.reshape(n * h_out * w_out, c * kernel * kernel)
    else:
        cols = permuted.reshape(n * h_out * w_out, c * kernel * kernel)
    return cols, (h_out, w_out)


def _reference_col2im(cols, image_shape, kernel, stride, pad):
    n, c, h, w = image_shape
    h_out = (h + 2 * pad - kernel) // stride + 1
    w_out = (w + 2 * pad - kernel) // stride + 1
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, h_out, w_out, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    for ky in range(kernel):
        y_end = ky + stride * h_out
        for kx in range(kernel):
            x_end = kx + stride * w_out
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols6[:, :, :, :, ky, kx]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


@pytest.fixture
def reference_lowering(monkeypatch):
    """Route conv/pool through the reference helpers for the oracle pass."""

    def use():
        monkeypatch.setattr(F, "im2col", _reference_im2col)
        monkeypatch.setattr(F, "col2im", _reference_col2im)

    return use


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _images(rng, shape, dtype, layout):
    """NCHW input, either C-contiguous or the NCHW view of NHWC data."""
    n, c, h, w = shape
    if layout == "nchw":
        return rng.standard_normal(shape).astype(dtype)
    return rng.standard_normal((n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)


GRID = list(
    itertools.product(
        (1, 2, 3),  # kernel
        (1, 2),  # stride
        (0, 1),  # pad
        (1, 3, 8),  # channels
        (np.float32, np.float64),
        ("nchw", "nhwc_view"),
    )
)


@pytest.mark.parametrize("kernel,stride,pad,channels,dtype,layout", GRID)
def test_im2col_col2im_bytes_match_reference(kernel, stride, pad, channels, dtype, layout):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + pad + channels)
    images = _images(rng, (2, channels, 7, 6), dtype, layout)

    expected, size = _reference_im2col(images, kernel, stride, pad)
    got, got_size = F.im2col(images, kernel, stride, pad)
    assert got_size == size
    assert _same_bytes(got, expected)

    h_out, w_out = size
    shape = (2, h_out, w_out, channels, kernel, kernel)
    workspace = np.full(shape, np.nan, dtype=dtype)
    got_ws, _ = F.im2col(images, kernel, stride, pad, out=workspace)
    assert np.shares_memory(got_ws, workspace)
    assert _same_bytes(got_ws, expected)

    grad_cols = rng.standard_normal(expected.shape).astype(dtype)
    grad_images = F.col2im(grad_cols, images.shape, kernel, stride, pad)
    # C-contiguous, like the padded NCHW buffer the reference slices:
    # downstream reductions sum in memory order.
    assert grad_images.flags.c_contiguous
    assert _same_bytes(
        grad_images, _reference_col2im(grad_cols, images.shape, kernel, stride, pad)
    )


def _conv_pass(x, w, b, stride, pad, workspace):
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = F.conv2d(xt, wt, bt, stride=stride, padding=pad, workspace=workspace)
    seed = np.cos(np.arange(out.data.size, dtype=x.dtype)).reshape(out.shape)
    (out * Tensor(seed)).sum().backward()
    return out.data, xt.grad, wt.grad, bt.grad


@pytest.mark.parametrize("kernel,stride,pad", list(itertools.product((1, 2, 3), (1, 2), (0, 1))))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["nchw", "nhwc_view"])
@pytest.mark.parametrize("with_workspace", [False, True])
def test_conv2d_forward_and_gradients_match_reference(
    reference_lowering, kernel, stride, pad, dtype, layout, with_workspace
):
    rng = np.random.default_rng(3)
    x = _images(rng, (2, 3, 8, 7), dtype, layout)
    w = rng.standard_normal((4, 3, kernel, kernel)).astype(dtype)
    b = rng.standard_normal(4).astype(dtype)

    def workspace():
        return F.Im2colWorkspace() if with_workspace else None

    assert x.flags.c_contiguous == (layout == "nchw")
    got = _conv_pass(x, w, b, stride, pad, workspace())
    reference_lowering()
    expected = _conv_pass(x, w, b, stride, pad, workspace())
    for g, e in zip(got, expected):
        assert _same_bytes(g, e)


@pytest.mark.parametrize("pool", [F.max_pool2d, F.avg_pool2d])
@pytest.mark.parametrize("kernel,stride", [(2, None), (3, 1), (3, 2)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["nchw", "nhwc_view"])
@pytest.mark.parametrize("with_workspace", [False, True])
def test_pools_forward_and_gradients_match_reference(
    reference_lowering, pool, kernel, stride, dtype, layout, with_workspace
):
    rng = np.random.default_rng(5)
    x = _images(rng, (2, 3, 8, 7), dtype, layout)

    def run():
        xt = Tensor(x, requires_grad=True)
        workspace = F.Im2colWorkspace() if with_workspace else None
        out = pool(xt, kernel, stride, workspace=workspace)
        seed = np.sin(np.arange(out.data.size, dtype=dtype)).reshape(out.shape)
        (out * Tensor(seed)).sum().backward()
        return out.data, xt.grad

    got = run()
    reference_lowering()
    expected = run()
    for g, e in zip(got, expected):
        assert _same_bytes(g, e)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resnet_training_step_matches_reference(reference_lowering, dtype):
    # The input gradient col2im hands back feeds batch-norm reductions,
    # whose summation order follows memory layout: a layout change alone
    # would shift training gradients by an ulp, so compare them whole.
    rng = np.random.default_rng(11)
    images = rng.random((4, 3, 16, 16)).astype(dtype)
    labels = np.array([0, 1, 2, 1])

    def step():
        with compute_dtype(dtype):
            model = TinyResNet(num_classes=3, widths=(4, 8), blocks_per_stage=(1, 1), seed=0)
            model.train()
            x = Tensor(images, requires_grad=True)
            cross_entropy(model(x), labels).backward()
        return [x.grad] + [p.grad for _, p in model.named_parameters()]

    got = step()
    reference_lowering()
    expected = step()
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert _same_bytes(g, e)
