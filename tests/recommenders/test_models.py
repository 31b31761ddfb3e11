"""Unit tests for BPR-MF, VBPR and AMR models."""

import numpy as np
import pytest

from repro.data import tiny_dataset
from repro.recommenders import (
    AMR,
    AMRConfig,
    BPRMF,
    BPRMFConfig,
    VBPR,
    VBPRConfig,
    evaluate_ranking,
)


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=0, image_size=16)


@pytest.fixture(scope="module")
def features(dataset):
    # Synthetic standardised features; category-dependent so VBPR can learn.
    rng = np.random.default_rng(0)
    base = rng.normal(0, 1, (dataset.num_categories, 12))
    feats = base[dataset.item_categories] + rng.normal(0, 0.3, (dataset.num_items, 12))
    return feats


class TestBPRMF:
    def test_fit_reduces_loss(self, dataset):
        model = BPRMF(
            dataset.num_users, dataset.num_items, BPRMFConfig(epochs=25, seed=0)
        ).fit(dataset.feedback)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_beats_random_auc(self, dataset):
        model = BPRMF(
            dataset.num_users, dataset.num_items, BPRMFConfig(epochs=30, seed=0)
        ).fit(dataset.feedback)
        report = evaluate_ranking(model, dataset.feedback, cutoff=10)
        assert report.auc > 0.55

    def test_score_shape(self, dataset):
        model = BPRMF(
            dataset.num_users, dataset.num_items, BPRMFConfig(epochs=1)
        ).fit(dataset.feedback)
        assert model.score_all().shape == (dataset.num_users, dataset.num_items)

    def test_deterministic_given_seed(self, dataset):
        a = BPRMF(dataset.num_users, dataset.num_items, BPRMFConfig(epochs=3, seed=5)).fit(
            dataset.feedback
        )
        b = BPRMF(dataset.num_users, dataset.num_items, BPRMFConfig(epochs=3, seed=5)).fit(
            dataset.feedback
        )
        np.testing.assert_allclose(a.score_all(), b.score_all())

    def test_wrong_universe_rejected(self, dataset):
        model = BPRMF(dataset.num_users + 1, dataset.num_items)
        with pytest.raises(ValueError):
            model.fit(dataset.feedback)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BPRMFConfig(factors=0)
        with pytest.raises(ValueError):
            BPRMFConfig(learning_rate=0)
        with pytest.raises(ValueError):
            BPRMFConfig(regularization=-1)


class TestVBPR:
    def test_fit_reduces_loss(self, dataset, features):
        model = VBPR(
            dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=25)
        ).fit(dataset.feedback)
        assert model.loss_history[-1] < model.loss_history[0]
        assert np.isfinite(model.loss_history[-1])

    def test_scores_depend_on_features(self, dataset, features):
        model = VBPR(
            dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=10)
        ).fit(dataset.feedback)
        clean = model.score_all()
        shifted = model.score_all(features=features + 1.0)
        assert not np.allclose(clean, shifted)

    def test_feature_validation(self, dataset, features):
        with pytest.raises(ValueError):
            VBPR(dataset.num_users, dataset.num_items, features[:-1])
        with pytest.raises(ValueError):
            VBPR(dataset.num_users, dataset.num_items, features[:, 0])
        bad = features.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            VBPR(dataset.num_users, dataset.num_items, bad)

    def test_score_all_feature_shape_validation(self, dataset, features):
        model = VBPR(
            dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=1)
        ).fit(dataset.feedback)
        with pytest.raises(ValueError):
            model.score_all(features=features[:, :4])

    def test_visual_model_uses_visual_signal(self, dataset, features):
        """Items of the same category (similar features) get similar visual scores."""
        model = VBPR(
            dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=40, seed=1)
        ).fit(dataset.feedback)
        # Scores after zeroing collaborative terms: visual-only part.
        visual_part = (
            model.visual_user_factors @ (features @ model.embedding).T
            + (features @ model.visual_bias)[None, :]
        )
        socks = dataset.items_in_category("sock")
        shoes = dataset.items_in_category("running_shoe")
        within = np.corrcoef(visual_part[:, socks[0]], visual_part[:, socks[1]])[0, 1]
        across = np.corrcoef(visual_part[:, socks[0]], visual_part[:, shoes[0]])[0, 1]
        assert within > across

    def test_deterministic_given_seed(self, dataset, features):
        a = VBPR(
            dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=3, seed=2)
        ).fit(dataset.feedback)
        b = VBPR(
            dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=3, seed=2)
        ).fit(dataset.feedback)
        np.testing.assert_allclose(a.score_all(), b.score_all())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VBPRConfig(visual_factors=0)
        with pytest.raises(ValueError):
            VBPRConfig(visual_regularization=-0.1)


class TestAMR:
    def test_fit_converges(self, dataset, features):
        model = AMR(
            dataset.num_users,
            dataset.num_items,
            features,
            AMRConfig(epochs=20, pretrain_epochs=10),
        ).fit(dataset.feedback)
        assert np.isfinite(model.loss_history[-1])
        assert model.loss_history[-1] < model.loss_history[0]

    def test_requires_amr_config(self, dataset, features):
        with pytest.raises(TypeError):
            AMR(dataset.num_users, dataset.num_items, features, VBPRConfig())

    def test_adversarial_phase_changes_parameters(self, dataset, features):
        """Adversarial epochs must actually alter training (vs plain VBPR)."""
        common = dict(epochs=12, seed=3)
        vbpr_like = AMR(
            dataset.num_users,
            dataset.num_items,
            features,
            AMRConfig(pretrain_epochs=12, **common),
        ).fit(dataset.feedback)
        adversarial = AMR(
            dataset.num_users,
            dataset.num_items,
            features,
            AMRConfig(pretrain_epochs=6, **common),
        ).fit(dataset.feedback)
        assert not np.allclose(vbpr_like.embedding, adversarial.embedding)

    def test_pretrain_phase_matches_vbpr(self, dataset, features):
        """With pretrain_epochs == epochs, AMR degenerates to VBPR exactly."""
        config_kwargs = dict(epochs=5, seed=7, batch_size=128)
        amr = AMR(
            dataset.num_users,
            dataset.num_items,
            features,
            AMRConfig(pretrain_epochs=5, **config_kwargs),
        ).fit(dataset.feedback)
        vbpr = VBPR(
            dataset.num_users, dataset.num_items, features, VBPRConfig(**config_kwargs)
        ).fit(dataset.feedback)
        np.testing.assert_allclose(amr.score_all(), vbpr.score_all(), atol=1e-10)

    def test_perturbation_magnitude_is_eta(self, dataset, features):
        model = AMR(
            dataset.num_users,
            dataset.num_items,
            features,
            AMRConfig(epochs=1, pretrain_epochs=1, eta=2.0),
        )
        users = np.array([0, 1])
        positives = np.array([dataset.feedback.train_items[0][0], dataset.feedback.train_items[1][0]])
        negatives = np.array([5, 6])
        delta = model._feature_perturbation(users, positives, negatives)
        norms = np.linalg.norm(delta, axis=1)
        touched = norms[norms > 1e-9]
        np.testing.assert_allclose(touched, 2.0, atol=1e-9)

    def test_zero_gamma_adversarial_equals_plain(self, dataset, features):
        """γ=0 removes the regularizer: adversarial updates = clean updates."""
        kwargs = dict(epochs=6, seed=9, batch_size=64)
        gamma_zero = AMR(
            dataset.num_users,
            dataset.num_items,
            features,
            AMRConfig(pretrain_epochs=0, gamma=0.0, **kwargs),
        ).fit(dataset.feedback)
        plain = AMR(
            dataset.num_users,
            dataset.num_items,
            features,
            AMRConfig(pretrain_epochs=6, **kwargs),
        ).fit(dataset.feedback)
        np.testing.assert_allclose(gamma_zero.score_all(), plain.score_all(), atol=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AMRConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            AMRConfig(eta=-1.0)
        with pytest.raises(ValueError):
            AMRConfig(pretrain_epochs=-1)
