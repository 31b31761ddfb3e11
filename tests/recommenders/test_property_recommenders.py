"""Property-based tests for recommender scoring invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.interactions import ImplicitFeedback
from repro.recommenders import VBPR, VBPRConfig


@st.composite
def fitted_vbpr(draw):
    num_users = draw(st.integers(2, 8))
    num_items = draw(st.integers(6, 15))
    feature_dim = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(num_items, feature_dim))

    train_items = []
    for _ in range(num_users):
        count = int(rng.integers(2, min(5, num_items)))
        train_items.append(
            np.sort(rng.choice(num_items, size=count, replace=False)).astype(np.int64)
        )
    feedback = ImplicitFeedback(
        num_users=num_users,
        num_items=num_items,
        train_items=train_items,
        test_items=np.full(num_users, -1, dtype=np.int64),
    )
    model = VBPR(
        num_users,
        num_items,
        features,
        VBPRConfig(epochs=2, batch_size=16, seed=seed),
    ).fit(feedback)
    return model, feedback, features, rng


class TestScoringInvariants:
    @given(fitted_vbpr())
    @settings(max_examples=20, deadline=None)
    def test_scores_finite(self, case):
        model, _, _, _ = case
        assert np.isfinite(model.score_all()).all()

    @given(fitted_vbpr())
    @settings(max_examples=20, deadline=None)
    def test_unattacked_items_scores_unchanged(self, case):
        """Replacing one item's features must not move other columns."""
        model, _, features, rng = case
        attacked = int(rng.integers(0, model.num_items))
        modified = features.copy()
        modified[attacked] += rng.normal(size=features.shape[1])
        before = model.score_all()
        after = model.score_all(features=modified)
        untouched = np.delete(np.arange(model.num_items), attacked)
        np.testing.assert_allclose(after[:, untouched], before[:, untouched], atol=1e-12)

    @given(fitted_vbpr())
    @settings(max_examples=20, deadline=None)
    def test_top_n_lists_are_permutation_free(self, case):
        model, feedback, _, _ = case
        lists = model.top_n(min(5, model.num_items), feedback=feedback)
        for row in lists:
            assert len(set(row.tolist())) == len(row)

    @given(fitted_vbpr())
    @settings(max_examples=20, deadline=None)
    def test_score_shift_invariance_of_ranking(self, case):
        """Adding a constant to every score leaves top-N unchanged."""
        model, feedback, _, _ = case
        scores = model.score_all()
        base = model.top_n(3, feedback=feedback, scores=scores)
        shifted = model.top_n(3, feedback=feedback, scores=scores + 42.0)
        np.testing.assert_array_equal(base, shifted)


class TestModuleStateProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_state_dict_roundtrip_any_seed(self, seed):
        from repro.nn import Tensor, TinyResNet

        source = TinyResNet(num_classes=3, widths=(4, 8), blocks_per_stage=(1, 1), seed=seed)
        clone = TinyResNet(num_classes=3, widths=(4, 8), blocks_per_stage=(1, 1), seed=seed + 1)
        clone.load_state_dict(source.state_dict())
        x = np.random.default_rng(seed).random((2, 3, 8, 8))
        np.testing.assert_allclose(
            clone.eval()(Tensor(x)).data, source.eval()(Tensor(x)).data, atol=1e-12
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_state_dict_keys_stable_across_seeds(self, seed):
        from repro.nn import TinyResNet

        a = TinyResNet(num_classes=3, widths=(4,), blocks_per_stage=(1,), seed=seed)
        b = TinyResNet(num_classes=3, widths=(4,), blocks_per_stage=(1,), seed=0)
        assert set(a.state_dict()) == set(b.state_dict())
