"""Equivalence tests for the fast attack-grid engine.

Every optimization in the perf pass (float32 compute policy, eval-time
conv+BN folding, im2col workspace reuse, frozen-parameter attack
backward) must be a pure speedup.  These tests pin the optimized paths
against the unoptimized ones so a future change cannot silently trade
correctness for throughput.
"""

import numpy as np

from repro.nn import (
    SGD,
    Tensor,
    TinyResNet,
    compute_dtype,
    conv_bn_folding,
    cross_entropy,
    frozen_parameters,
    no_grad,
    parameter_freezing,
)
from repro.nn import functional as F
from repro.nn.functional import Im2colWorkspace

RNG = np.random.default_rng(11)


def make_model(seed: int = 0) -> TinyResNet:
    model = TinyResNet(num_classes=4, widths=(8, 16), blocks_per_stage=(1, 1), seed=seed)
    # One train-mode pass gives the BN layers non-trivial running
    # statistics, so folding has something real to fold.
    model.train()
    model(Tensor(RNG.random((8, 3, 12, 12)).astype(np.float32)))
    model.eval()
    return model


def eval_forward(model: TinyResNet, images: np.ndarray) -> np.ndarray:
    """Inference forward, mirroring predict_proba (no_grad → cached fold)."""
    with no_grad():
        return model(Tensor(images)).data.copy()


class TestConvBnFolding:
    def test_folded_matches_unfolded(self):
        model = make_model()
        images = RNG.random((4, 3, 12, 12)).astype(np.float32)
        with conv_bn_folding(True):
            folded = eval_forward(model, images)
        with conv_bn_folding(False):
            unfolded = eval_forward(model, images)
        np.testing.assert_allclose(folded, unfolded, atol=1e-5)

    def test_fold_cache_invalidated_by_mode_flip(self):
        # Optimizer steps mutate parameter arrays in place while the model
        # is in train mode; returning to eval must re-fold.
        model = make_model()
        images = RNG.random((2, 3, 12, 12)).astype(np.float32)
        with conv_bn_folding(True):
            before = eval_forward(model, images)
            model.train()
            model.stem_conv.weight.data *= 1.5
            model.eval()
            after = eval_forward(model, images)
            with conv_bn_folding(False):
                reference = eval_forward(model, images)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, reference, atol=1e-5)

    def test_fold_cache_invalidated_by_stat_rebind(self):
        # BN recalibration rebinds the running-stat arrays without any
        # mode flip; the identity-keyed cache must notice.
        model = make_model()
        images = RNG.random((2, 3, 12, 12)).astype(np.float32)
        with conv_bn_folding(True):
            before = eval_forward(model, images)
            model.stem_bn.running_mean = model.stem_bn.running_mean + 0.25
            after = eval_forward(model, images)
            with conv_bn_folding(False):
                reference = eval_forward(model, images)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, reference, atol=1e-5)

    def test_repeated_predicts_reuse_one_fold(self):
        # predict_proba calls eval() per batch; an eval→eval call must not
        # drop the cache, or every inference forward re-folds every conv.
        model = make_model()
        images = RNG.random((2, 3, 12, 12)).astype(np.float32)
        with conv_bn_folding(True):
            model.predict_proba(images)
            fold = model.stem_conv._folded_eval
            model.predict_proba(images)
        assert model.stem_conv._folded_eval is fold

    def test_load_state_dict_in_eval_mode_refolds(self):
        # The load rebinds every array the cached fold came from; the cache
        # holds those sources, so a freed array's reused id() cannot fool it.
        source = make_model(seed=3)
        images = RNG.random((2, 3, 12, 12)).astype(np.float32)
        with conv_bn_folding(True):
            model = make_model(seed=0)
            eval_forward(model, images)  # fold seed-0 weights into the cache
            model.load_state_dict(source.state_dict())
            loaded = eval_forward(model, images)
            fresh = TinyResNet(
                num_classes=4, widths=(8, 16), blocks_per_stage=(1, 1), seed=5
            )
            fresh.load_state_dict(source.state_dict())
            fresh.eval()
            expected = eval_forward(fresh, images)
        np.testing.assert_array_equal(loaded, expected)


class TestDtypePolicy:
    def test_float32_and_float64_predictions_agree(self):
        model = make_model()
        images = RNG.random((32, 3, 12, 12)).astype(np.float32)
        labels = np.arange(32, dtype=np.int64) % 4
        optimizer = SGD(model.parameters(), lr=0.05)
        model.train()
        for _ in range(5):
            model.zero_grad()
            cross_entropy(model(Tensor(images)), labels).backward()
            optimizer.step()
        model.eval()

        predictions32 = model.predict(images)
        probabilities32 = model.predict_proba(images)
        model.to_dtype(np.float64)
        try:
            with compute_dtype(np.float64):
                predictions64 = model.predict(images.astype(np.float64))
                probabilities64 = model.predict_proba(images.astype(np.float64))
        finally:
            model.to_dtype(np.float32)

        np.testing.assert_array_equal(predictions32, predictions64)
        np.testing.assert_allclose(probabilities32, probabilities64, atol=1e-5)


class TestWorkspaceReuse:
    def test_conv_output_bit_identical(self):
        x = Tensor(RNG.random((2, 3, 10, 10)).astype(np.float32))
        weight = Tensor(RNG.random((4, 3, 3, 3)).astype(np.float32) - 0.5)
        bias = Tensor(RNG.random(4).astype(np.float32))

        fresh = F.conv2d(x, weight, bias, stride=1, padding=1).data
        workspace = Im2colWorkspace()
        first = F.conv2d(x, weight, bias, stride=1, padding=1, workspace=workspace).data
        second = F.conv2d(x, weight, bias, stride=1, padding=1, workspace=workspace).data

        np.testing.assert_array_equal(fresh, first)
        np.testing.assert_array_equal(fresh, second)
        assert workspace.hits >= 1

    def test_buffer_held_until_pending_backward_runs(self):
        x = Tensor(RNG.random((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
        weight = Tensor(RNG.random((4, 3, 3, 3)).astype(np.float32) - 0.5, requires_grad=True)
        workspace = Im2colWorkspace()
        shape = (2, 6, 6, 3, 3, 3)

        out = F.conv2d(x, weight, stride=1, padding=1, workspace=workspace)
        # The backward still owes a weight gradient from the columns.
        assert workspace.acquire(shape, np.dtype(np.float32)) is None
        out.sum().backward()
        buffer = workspace.acquire(shape, np.dtype(np.float32))
        assert buffer is not None and buffer.shape == shape
        workspace.release()


class TestFrozenParameters:
    def test_input_gradient_identical_and_param_grads_untouched(self):
        model = make_model()
        images = RNG.random((2, 3, 12, 12)).astype(np.float32)
        labels = np.zeros(2, dtype=np.int64)

        x_unfrozen = Tensor(images, requires_grad=True)
        cross_entropy(model(x_unfrozen), labels).backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()

        x_frozen = Tensor(images, requires_grad=True)
        with frozen_parameters(model):
            cross_entropy(model(x_frozen), labels).backward()

        np.testing.assert_array_equal(x_frozen.grad, x_unfrozen.grad)
        assert all(p.grad is None for p in model.parameters())
        assert all(p.requires_grad for p in model.parameters())

    def test_freezing_toggle_restores_seed_behaviour(self):
        model = make_model()
        with parameter_freezing(False):
            with frozen_parameters(model):
                assert all(p.requires_grad for p in model.parameters())
        with frozen_parameters(model):
            assert not any(p.requires_grad for p in model.parameters())
        assert all(p.requires_grad for p in model.parameters())
