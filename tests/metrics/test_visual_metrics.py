"""Unit tests for PSNR, SSIM and PSM (Table IV metrics)."""

import importlib

import numpy as np
import pytest

from repro.metrics import (
    PerceptualSimilarity,
    batch_psnr,
    batch_ssim,
    mse,
    psm_from_features,
    psnr,
    ssim,
    ssim_reference,
)
from repro.metrics.ssim import _mean_var, _windows
from repro.nn import TinyResNet

RNG = np.random.default_rng(9)


class TestMSEPSNR:
    def test_mse_zero_for_identical(self):
        x = RNG.random((3, 8, 8))
        assert mse(x, x) == 0.0

    def test_mse_known_value(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 0.5)
        assert mse(a, b) == pytest.approx(0.25)

    def test_psnr_infinite_for_identical(self):
        x = RNG.random((3, 4, 4))
        assert psnr(x, x) == float("inf")

    def test_psnr_known_value(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 0.1)  # MSE = 0.01 -> PSNR = 20 dB
        assert psnr(a, b) == pytest.approx(20.0)

    def test_psnr_scale_invariance(self):
        """255-scale and 1-scale images give identical dB values."""
        a = RNG.random((3, 6, 6))
        b = np.clip(a + RNG.normal(0, 0.02, a.shape), 0, 1)
        db_unit = psnr(a, b, peak=1.0)
        db_255 = psnr(a * 255, b * 255, peak=255.0)
        assert db_unit == pytest.approx(db_255)

    def test_psnr_decreases_with_noise(self):
        x = RNG.random((3, 8, 8))
        small = np.clip(x + RNG.normal(0, 0.01, x.shape), 0, 1)
        large = np.clip(x + RNG.normal(0, 0.1, x.shape), 0, 1)
        assert psnr(x, small) > psnr(x, large)

    def test_batch_psnr_matches_single(self):
        x = RNG.random((4, 3, 8, 8))
        y = np.clip(x + RNG.normal(0, 0.05, x.shape), 0, 1)
        batch = batch_psnr(x, y)
        singles = [psnr(x[i], y[i]) for i in range(4)]
        np.testing.assert_allclose(batch, singles)

    def test_typical_attack_range(self):
        """ε = 8/255 perturbations should land in the paper's 20-50 dB band."""
        x = RNG.random((3, 16, 16))
        y = np.clip(x + RNG.choice([-1, 1], x.shape) * (8 / 255), 0, 1)
        assert 20 < psnr(x, y) < 50

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            batch_psnr(np.zeros((1, 3, 4, 4)), np.zeros((2, 3, 4, 4)))

    def test_invalid_peak(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.ones((2, 2)), peak=0.0)


class TestSSIM:
    def test_identical_images_score_one(self):
        x = RNG.random((3, 16, 16))
        assert ssim(x, x) == pytest.approx(1.0)

    def test_range_bounded(self):
        x = RNG.random((3, 16, 16))
        y = RNG.random((3, 16, 16))
        value = ssim(x, y)
        assert -1.0 <= value <= 1.0

    def test_decreases_with_noise(self):
        x = RNG.random((3, 16, 16))
        small = np.clip(x + RNG.normal(0, 0.01, x.shape), 0, 1)
        large = np.clip(x + RNG.normal(0, 0.2, x.shape), 0, 1)
        assert ssim(x, small) > ssim(x, large)

    def test_constant_shift_keeps_structure(self):
        """SSIM is structure-sensitive: a small uniform shift barely hurts."""
        x = RNG.random((1, 16, 16)) * 0.5 + 0.25
        shifted = x + 0.02
        noisy = np.clip(x + RNG.normal(0, 0.02, x.shape), 0, 1)
        assert ssim(x, shifted) > ssim(x, noisy)

    def test_accepts_hw_images(self):
        x = RNG.random((12, 12))
        assert ssim(x, x) == pytest.approx(1.0)

    def test_small_attack_stays_near_one(self):
        x = RNG.random((3, 16, 16))
        y = np.clip(x + RNG.choice([-1, 1], x.shape) * (4 / 255), 0, 1)
        assert ssim(x, y) > 0.9

    def test_window_validation(self):
        x = RNG.random((3, 8, 8))
        with pytest.raises(ValueError):
            ssim(x, x, window=1)
        with pytest.raises(ValueError):
            ssim(x, x, window=10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((3, 8, 8)), np.zeros((3, 9, 9)))

    def test_windows_are_row_major_patches(self):
        plane = RNG.random((9, 16))[:, ::2]  # a non-contiguous plane
        rows = _windows(plane, 3)
        expected = np.array(
            [plane[i : i + 3, j : j + 3].reshape(-1) for i in range(7) for j in range(6)]
        )
        assert rows.tobytes() == expected.tobytes()

    def test_batch_ssim(self):
        x = RNG.random((3, 3, 12, 12))
        values = batch_ssim(x, x)
        np.testing.assert_allclose(values, np.ones(3), atol=1e-10)


def _ssim_loop(x, y, window):
    """The per-image reference: one ``ssim`` call per image."""
    return np.array([ssim(x[i], y[i], window=window) for i in range(x.shape[0])])


class TestBatchSSIMPinnedToPerImage:
    """``batch_ssim`` returns the bytes of a loop of per-image ``ssim``
    calls, with and without a reusable clean-side ``reference``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 5, 37])
    @pytest.mark.parametrize("window", [2, 7, 8])
    @pytest.mark.parametrize("shape", [(3, 16, 16), (3, 12, 21)])
    def test_bytes_equal_per_image_loop(self, dtype, n, window, shape):
        rng = np.random.default_rng(n * 100 + window)
        x = rng.random((n,) + shape).astype(dtype)
        y = np.clip(x + rng.normal(0, 0.05, x.shape), 0, 1).astype(dtype)
        expected = _ssim_loop(x, y, window).tobytes()
        assert batch_ssim(x, y, window=window).tobytes() == expected
        reference = ssim_reference(x, window=window)
        assert batch_ssim(x, y, window=window, reference=reference).tobytes() == expected

    def test_reference_is_reused_across_rungs(self):
        rng = np.random.default_rng(3)
        x = rng.random((6, 3, 10, 14)).astype(np.float32)
        reference = ssim_reference(x)
        for scale in (0.01, 0.05, 0.2):
            y = np.clip(x + rng.normal(0, scale, x.shape), 0, 1).astype(np.float32)
            got = batch_ssim(x, y, reference=reference)
            assert got.tobytes() == _ssim_loop(x, y, 7).tobytes()
        assert reference.statistics() is reference.statistics()

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(4)
        base = rng.random((5, 3, 13, 11))
        x = base.transpose(0, 1, 3, 2)  # a transposed view, 11x13 planes
        y = np.clip(x + rng.normal(0, 0.05, x.shape), 0, 1)
        assert not x.flags.c_contiguous
        expected = _ssim_loop(x, y, 7).tobytes()
        assert batch_ssim(x, y).tobytes() == expected
        assert batch_ssim(x, y, reference=ssim_reference(x)).tobytes() == expected

    def test_blocks_do_not_change_bytes(self, monkeypatch):
        # ``repro.metrics.ssim`` names the function; fetch the module.
        module = importlib.import_module("repro.metrics.ssim")
        rng = np.random.default_rng(5)
        x = rng.random((9, 3, 12, 12))
        y = np.clip(x + rng.normal(0, 0.05, x.shape), 0, 1)
        expected = _ssim_loop(x, y, 7).tobytes()
        # One image per block: the ragged block walk covers every image.
        monkeypatch.setattr(module, "_BLOCK_ELEMENTS", 1)
        assert batch_ssim(x, y).tobytes() == expected

    @pytest.mark.parametrize("shape", [(7, 3, 100, 49), (2, 3, 100, 49), (3, 3, 4, 64)])
    def test_window_variance_reuses_the_mean_bitwise(self, shape):
        windows = RNG.random(shape)
        mean, var = _mean_var(windows)
        assert mean.tobytes() == windows.mean(axis=-1).tobytes()
        assert var.tobytes() == windows.var(axis=-1).tobytes()

    def test_empty_batch(self):
        x = np.zeros((0, 3, 8, 8))
        assert batch_ssim(x, x).shape == (0,)

    def test_validation_errors(self):
        x = RNG.random((2, 3, 8, 8))
        with pytest.raises(ValueError, match="window must be >= 2"):
            batch_ssim(x, x, window=1)
        with pytest.raises(ValueError, match="window larger than image"):
            batch_ssim(x, x, window=10)
        with pytest.raises(ValueError, match="identical shapes"):
            batch_ssim(x, RNG.random((2, 3, 9, 9)))
        with pytest.raises(ValueError, match="identical shapes"):
            batch_ssim(x, x[:1])
        with pytest.raises(ValueError, match="NCHW"):
            batch_ssim(x[0], x[0])
        with pytest.raises(ValueError, match="window larger than image"):
            ssim_reference(x, window=9)
        reference = ssim_reference(x)
        with pytest.raises(ValueError, match="reference"):
            batch_ssim(x, x, window=5, reference=reference)
        with pytest.raises(ValueError, match="reference"):
            batch_ssim(x[:1], x[:1], reference=reference)


class TestPSM:
    def test_from_features_zero_for_identical(self):
        feats = RNG.random((5, 8))
        np.testing.assert_allclose(psm_from_features(feats, feats), np.zeros(5))

    def test_from_features_normalised_by_dim(self):
        a = np.zeros((1, 4))
        b = np.ones((1, 4))
        assert psm_from_features(a, b)[0] == pytest.approx(1.0)  # 4/4

    def test_from_features_validation(self):
        with pytest.raises(ValueError):
            psm_from_features(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            psm_from_features(np.zeros(3), np.zeros(3))

    def test_model_based_psm(self):
        model = TinyResNet(num_classes=3, widths=(4, 8), blocks_per_stage=(1, 1), seed=0)
        metric = PerceptualSimilarity(model)
        x = RNG.random((2, 3, 16, 16))
        np.testing.assert_allclose(metric(x, x), np.zeros(2), atol=1e-12)
        y = np.clip(x + RNG.normal(0, 0.3, x.shape), 0, 1)
        assert metric(x, y).min() > 0

    def test_single_pair(self):
        model = TinyResNet(num_classes=3, widths=(4,), blocks_per_stage=(1,), seed=0)
        metric = PerceptualSimilarity(model)
        x = RNG.random((3, 16, 16))
        assert metric.single(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_batch_shape_validation(self):
        model = TinyResNet(num_classes=3, widths=(4,), blocks_per_stage=(1,), seed=0)
        metric = PerceptualSimilarity(model)
        with pytest.raises(ValueError):
            metric(np.zeros((1, 3, 8, 8)), np.zeros((2, 3, 8, 8)))
        with pytest.raises(ValueError):
            metric(np.zeros((3, 8, 8)), np.zeros((3, 8, 8)))
