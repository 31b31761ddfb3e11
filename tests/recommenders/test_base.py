"""Unit tests for BPR sampling and the Recommender base API."""

import numpy as np
import pytest

from repro.data import tiny_dataset
from repro.data.interactions import ImplicitFeedback
from repro.recommenders import (
    AMR,
    AMRConfig,
    BPRMF,
    BPRMFConfig,
    BPRTripletSampler,
    MostPop,
    VBPR,
    VBPRConfig,
    sigmoid,
)


@pytest.fixture(scope="module")
def feedback():
    return tiny_dataset(seed=0, image_size=16).feedback


class TestSampler:
    def test_shapes(self, feedback):
        sampler = BPRTripletSampler(feedback, seed=0)
        users, positives, negatives = sampler.sample(100)
        assert users.shape == positives.shape == negatives.shape == (100,)

    def test_positives_are_train_interactions(self, feedback):
        sampler = BPRTripletSampler(feedback, seed=1)
        users, positives, _ = sampler.sample(500)
        positive_sets = feedback.positive_sets()
        for user, item in zip(users, positives):
            assert item in positive_sets[user]

    def test_negatives_not_in_positives(self, feedback):
        sampler = BPRTripletSampler(feedback, seed=2)
        users, _, negatives = sampler.sample(500)
        positive_sets = feedback.positive_sets()
        for user, item in zip(users, negatives):
            assert item not in positive_sets[user]

    def test_deterministic_given_seed(self, feedback):
        a = BPRTripletSampler(feedback, seed=3).sample(50)
        b = BPRTripletSampler(feedback, seed=3).sample(50)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_invalid_batch_size(self, feedback):
        with pytest.raises(ValueError):
            BPRTripletSampler(feedback).sample(0)

    def test_empty_feedback_rejected(self):
        empty = ImplicitFeedback(
            num_users=1,
            num_items=3,
            train_items=[np.zeros(0, dtype=np.int64)],
            test_items=np.array([-1]),
        )
        with pytest.raises(ValueError):
            BPRTripletSampler(empty)

    def test_degenerate_user_with_all_items(self):
        fb = ImplicitFeedback(
            num_users=1,
            num_items=3,
            train_items=[np.array([0, 1, 2])],
            test_items=np.array([-1]),
        )
        sampler = BPRTripletSampler(fb, seed=0)
        users, positives, negatives = sampler.sample(10)  # must not hang
        assert len(negatives) == 10


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_extremes_finite(self):
        out = sigmoid(np.array([-1e6, 1e6]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), np.ones(11), atol=1e-12)


class TestRecommenderAPI:
    def test_unfitted_raises(self, feedback):
        model = BPRMF(feedback.num_users, feedback.num_items)
        with pytest.raises(RuntimeError):
            model.score_all()
        with pytest.raises(RuntimeError):
            model.top_n(5)

    def test_universe_validation(self):
        with pytest.raises(ValueError):
            BPRMF(0, 10)

    def test_top_n_excludes_train_positives(self, feedback):
        model = BPRMF(
            feedback.num_users, feedback.num_items, BPRMFConfig(epochs=2)
        ).fit(feedback)
        lists = model.top_n(10, feedback=feedback)
        for user in range(feedback.num_users):
            overlap = set(lists[user].tolist()) & set(feedback.train_items[user].tolist())
            assert not overlap

    def test_top_n_sorted_by_score(self, feedback):
        model = BPRMF(
            feedback.num_users, feedback.num_items, BPRMFConfig(epochs=2)
        ).fit(feedback)
        scores = model.score_all()
        lists = model.top_n(10)
        for user in range(5):
            row = scores[user][lists[user]]
            assert np.all(np.diff(row) <= 1e-12)

    def test_top_n_with_custom_scores(self, feedback):
        model = BPRMF(
            feedback.num_users, feedback.num_items, BPRMFConfig(epochs=1)
        ).fit(feedback)
        custom = np.zeros((feedback.num_users, feedback.num_items))
        custom[:, 7] = 1.0
        lists = model.top_n(1, scores=custom)
        assert np.all(lists[:, 0] == 7)

    def test_top_n_caps_at_num_items(self, feedback):
        model = BPRMF(
            feedback.num_users, feedback.num_items, BPRMFConfig(epochs=1)
        ).fit(feedback)
        lists = model.top_n(10_000)
        assert lists.shape == (feedback.num_users, feedback.num_items)

    def test_top_n_invalid_n(self, feedback):
        model = BPRMF(
            feedback.num_users, feedback.num_items, BPRMFConfig(epochs=1)
        ).fit(feedback)
        with pytest.raises(ValueError):
            model.top_n(0)

    def test_top_n_wrong_score_shape(self, feedback):
        model = BPRMF(
            feedback.num_users, feedback.num_items, BPRMFConfig(epochs=1)
        ).fit(feedback)
        with pytest.raises(ValueError):
            model.top_n(5, scores=np.zeros((2, 2)))


class TestBlockScoring:
    """score_users + top_n(user_ids=...) — the serving-layer satellite."""

    @pytest.fixture(scope="class")
    def model(self, feedback):
        return BPRMF(
            feedback.num_users, feedback.num_items, BPRMFConfig(epochs=5, seed=0)
        ).fit(feedback)

    @pytest.fixture(scope="class")
    def score_kwargs(self):
        """Extra arguments of both ``score_users`` and ``score_all``."""
        return {}

    def test_score_users_matches_score_all_rows(self, model, score_kwargs):
        users = [0, 7, 21]
        np.testing.assert_allclose(
            model.score_users(users, **score_kwargs),
            model.score_all(**score_kwargs)[users],
            rtol=1e-10,
        )

    def test_score_users_accepts_scalar(self, model):
        block = model.score_users(3)
        assert block.shape == (1, model.num_items)

    def test_score_users_validates_range(self, model):
        with pytest.raises(ValueError):
            model.score_users([model.num_users])
        with pytest.raises(ValueError):
            model.score_users([-1])
        with pytest.raises(ValueError):
            model.score_users([])

    def test_top_n_block_matches_full(self, model, feedback):
        users = np.array([2, 5, 2, 30])  # duplicates and arbitrary order
        scores = model.score_all()
        full = model.top_n(8, feedback=feedback, scores=scores)
        block = model.top_n(8, feedback=feedback, scores=scores, user_ids=users)
        np.testing.assert_array_equal(block, full[users])

    def test_top_n_block_without_scores(self, model, feedback):
        users = [1, 4]
        full = model.top_n(6, feedback=feedback)
        block = model.top_n(6, feedback=feedback, user_ids=users)
        np.testing.assert_array_equal(block, full[users])

    def test_top_n_block_accepts_block_shaped_scores(self, model, feedback):
        users = np.array([3, 9])
        block_scores = model.score_users(users)
        block = model.top_n(5, feedback=feedback, scores=block_scores, user_ids=users)
        full = model.top_n(5, feedback=feedback)
        np.testing.assert_array_equal(block, full[users])

    def test_top_n_block_excludes_train_positives(self, model, feedback):
        users = [0, 11, 25]
        lists = model.top_n(10, feedback=feedback, user_ids=users)
        for row, user in enumerate(users):
            overlap = set(lists[row].tolist()) & set(
                feedback.train_items[user].tolist()
            )
            assert not overlap

    def test_top_n_block_wrong_score_shape(self, model):
        with pytest.raises(ValueError):
            model.top_n(5, scores=np.zeros((3, 3)), user_ids=[0, 1])

    def test_top_n_block_invalid_users(self, model):
        with pytest.raises(ValueError):
            model.top_n(5, user_ids=[model.num_users])


class TestBlockScoringAllModels(TestBlockScoring):
    """The same cases for VBPR (scoring replacement features), AMR and MostPop.

    ``score_users`` runs the one scoring kernel; each model's own
    ``score_all`` stays the independent oracle it is checked against.
    """

    @pytest.fixture(scope="class", params=["vbpr", "amr", "mostpop"])
    def case(self, request, feedback):
        rng = np.random.default_rng(5)
        features = rng.normal(0, 1, (feedback.num_items, 12))
        if request.param == "mostpop":
            return MostPop(feedback.num_users, feedback.num_items).fit(feedback), {}
        if request.param == "amr":
            config = AMRConfig(epochs=4, pretrain_epochs=2, seed=0)
            return AMR(feedback.num_users, feedback.num_items, features, config).fit(
                feedback
            ), {}
        model = VBPR(
            feedback.num_users, feedback.num_items, features, VBPRConfig(epochs=5, seed=0)
        ).fit(feedback)
        return model, {"features": rng.normal(0, 2, features.shape)}

    @pytest.fixture(scope="class")
    def model(self, case):
        return case[0]

    @pytest.fixture(scope="class")
    def score_kwargs(self, case):
        return case[1]
