"""Unit tests for the serving scorer.

:class:`SharedScorer` over an in-process snapshot of
:func:`compute_item_side`, owning every user, checked against each
recommender's offline ``score_all`` — an oracle independent of the
shard, cache and router code that sit on top of it.
"""

import numpy as np
import pytest

from repro.data import tiny_dataset
from repro.recommenders import (
    AMR,
    AMRConfig,
    BPRMF,
    BPRMFConfig,
    MostPop,
    VBPR,
    VBPRConfig,
)
from repro.serving.sharded import ArrayBank, SharedScorer, compute_item_side


def make_scorer(model, features=None):
    arrays = compute_item_side(model, features=features)
    users = np.arange(model.num_users)
    return SharedScorer(
        ArrayBank.snapshot(arrays),
        num_users=model.num_users,
        num_items=model.num_items,
        user_ids=users,
        user_side=model.user_side(users),
    )


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=0, image_size=16)


@pytest.fixture(scope="module")
def features(dataset):
    rng = np.random.default_rng(1)
    base = rng.normal(0, 1, (dataset.num_categories, 12))
    return base[dataset.item_categories] + rng.normal(0, 0.3, (dataset.num_items, 12))


@pytest.fixture(scope="module")
def vbpr(dataset, features):
    return VBPR(
        dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=3, seed=0)
    ).fit(dataset.feedback)


@pytest.fixture(scope="module")
def bprmf(dataset):
    return BPRMF(
        dataset.num_users, dataset.num_items, BPRMFConfig(epochs=3, seed=0)
    ).fit(dataset.feedback)


class TestConstruction:
    def test_requires_fitted(self, dataset, features):
        model = VBPR(dataset.num_users, dataset.num_items, features)
        with pytest.raises(RuntimeError):
            make_scorer(model)

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError):
            make_scorer(object())

    def test_rejects_features_for_nonvisual(self, bprmf, features):
        with pytest.raises(ValueError):
            make_scorer(bprmf, features=features)

    def test_rejects_wrong_feature_shape(self, vbpr):
        with pytest.raises(ValueError):
            make_scorer(vbpr, features=np.zeros((3, 12)))

    def test_snapshot_isolated_from_caller(self, vbpr, features):
        feats = np.array(features, copy=True)
        scorer = make_scorer(vbpr, features=feats)
        feats[0, 0] += 100.0
        assert scorer.bank["visual_items"][0, 0] != (feats @ vbpr.embedding)[0, 0]

    def test_features_view_readonly(self, vbpr):
        scorer = make_scorer(vbpr)
        with pytest.raises(ValueError):
            scorer.bank["visual_items"][0, 0] = 1.0

    def test_nonvisual_has_no_features(self, bprmf):
        with pytest.raises(KeyError):
            make_scorer(bprmf).bank["visual_items"]


class TestScoring:
    def test_block_matches_score_all_vbpr(self, vbpr):
        scorer = make_scorer(vbpr)
        users = [0, 5, 17]
        np.testing.assert_allclose(
            scorer.score_block(users), vbpr.score_all()[users], rtol=1e-10
        )

    def test_block_matches_score_all_bprmf(self, bprmf):
        scorer = make_scorer(bprmf)
        np.testing.assert_allclose(
            scorer.score_block([2, 3]), bprmf.score_all()[[2, 3]], rtol=1e-10
        )

    def test_block_matches_score_all_mostpop(self, dataset):
        model = MostPop(dataset.num_users, dataset.num_items).fit(dataset.feedback)
        scorer = make_scorer(model)
        np.testing.assert_allclose(
            scorer.score_block([1, 4]), model.score_all()[[1, 4]]
        )
        np.testing.assert_allclose(
            scorer.score_items([1], [3, 8]), model.score_all()[[1]][:, [3, 8]]
        )

    def test_score_items_matches_columns(self, vbpr):
        scorer = make_scorer(vbpr)
        full = scorer.score_block([4, 9])
        cols = scorer.score_items([4, 9], [0, 7, 31])
        np.testing.assert_allclose(cols, full[:, [0, 7, 31]], rtol=1e-12)

    def test_invalid_users_rejected(self, vbpr):
        scorer = make_scorer(vbpr)
        with pytest.raises(ValueError):
            scorer.score_block([vbpr.num_users])
        with pytest.raises(ValueError):
            scorer.score_block([-1])

    def test_invalid_items_rejected(self, vbpr):
        scorer = make_scorer(vbpr)
        with pytest.raises(ValueError):
            scorer.score_items([0], [vbpr.num_items])
        with pytest.raises(ValueError):
            scorer.score_items([0], [])


class TestUpdates:
    def test_update_matches_full_rescore(self, dataset, vbpr, features):
        scorer = make_scorer(vbpr)
        rng = np.random.default_rng(7)
        item_ids = np.array([3, 40, 41])
        new = rng.normal(0, 1, (3, features.shape[1]))
        assert scorer.update_item_features(item_ids, new) is True

        shadow = np.array(features, copy=True)
        shadow[item_ids] = new
        expected = vbpr.score_all(features=shadow)
        users = np.arange(dataset.num_users)
        np.testing.assert_allclose(scorer.score_block(users), expected, rtol=1e-10)

    def test_untouched_columns_bit_identical(self, vbpr, features):
        scorer = make_scorer(vbpr)
        before = scorer.score_block([0])
        scorer.update_item_features([10], np.ones((1, features.shape[1])))
        after = scorer.score_block([0])
        untouched = np.delete(np.arange(vbpr.num_items), 10)
        np.testing.assert_array_equal(before[:, untouched], after[:, untouched])

    def test_nonvisual_update_is_noop(self, bprmf):
        scorer = make_scorer(bprmf)
        before = scorer.score_block([0, 1])
        assert scorer.update_item_features([5], np.ones((1, 99))) is False
        assert scorer.feature_updates == 1
        np.testing.assert_array_equal(scorer.score_block([0, 1]), before)

    def test_amr_is_supported(self, dataset, features):
        model = AMR(
            dataset.num_users,
            dataset.num_items,
            features,
            AMRConfig(epochs=3, pretrain_epochs=1, seed=0),
        ).fit(dataset.feedback)
        scorer = make_scorer(model)
        assert scorer.is_visual
        np.testing.assert_allclose(
            scorer.score_block([0]), model.score_all()[[0]], rtol=1e-10
        )

    def test_update_validation(self, vbpr, features):
        scorer = make_scorer(vbpr)
        with pytest.raises(ValueError):
            scorer.update_item_features([0], np.ones((2, features.shape[1])))
        with pytest.raises(ValueError):
            scorer.update_item_features([vbpr.num_items], np.ones((1, features.shape[1])))
        bad = np.full((1, features.shape[1]), np.nan)
        with pytest.raises(ValueError):
            scorer.update_item_features([0], bad)


class DictOverlay:
    """Overlay scoring as one dict entry per item, the oracle's form.

    Each push's ``F·E`` and ``F·β`` rows are kept per id (last write
    wins); scoring re-stacks them in id order and patches them over the
    dense columns with the scorer's expression shapes and addition order.
    """

    def __init__(self, model):
        self.bank = compute_item_side(model)
        user_side = model.user_side(np.arange(model.num_users))
        self.user_factors = user_side["user_factors"]
        self.visual_user_factors = user_side["visual_user_factors"]
        self.rows = {}

    def update(self, item_ids, item_features):
        visual_rows = item_features @ self.bank["embedding"]
        bias_rows = item_features @ self.bank["visual_bias"]
        for pos, item in enumerate(item_ids):
            self.rows[int(item)] = (visual_rows[pos], float(bias_rows[pos]))

    def columns(self, users, ids, visual, bias):
        bank = self.bank
        scores = (
            bank["item_bias"][ids][None, :]
            + self.user_factors[users] @ bank["item_factors"][ids].T
        )
        scores += self.visual_user_factors[users] @ visual.T
        scores += bias[None, :]
        return scores

    def score_block(self, users):
        bank = self.bank
        scores = bank["item_bias"][None, :] + self.user_factors[users] @ bank["item_factors"].T
        scores += self.visual_user_factors[users] @ bank["visual_items"].T
        scores += bank["visual_bias_scores"][None, :]
        ids = np.array(sorted(self.rows))
        visual = np.stack([self.rows[i][0] for i in ids])
        bias = np.array([self.rows[i][1] for i in ids])
        scores[:, ids] = self.columns(users, ids, visual, bias)
        return scores

    def score_items(self, users, item_ids):
        visual = np.array(self.bank["visual_items"][item_ids], copy=True)
        bias = np.array(self.bank["visual_bias_scores"][item_ids], copy=True)
        for pos, item in enumerate(item_ids):
            if int(item) in self.rows:
                visual[pos], bias[pos] = self.rows[int(item)]
        return self.columns(users, item_ids, visual, bias)


class TestOverlayOracle:
    """Overlaid scores against a per-item dict overlay and a fresh scorer.

    Over a run of pushes that repeat ids across pushes and within one
    push (the last row wins), the overlay scorer must equal, byte for
    byte, the dict-overlay oracle at every block shape.
    Against a fresh scorer published from the pushed feature state it
    agrees to rounding only: a push computes ``F·E`` and ``F·β`` for its
    own rows, and BLAS may round a row of a k-row product differently
    from the same row of the catalogue-sized one.
    """

    def pushes(self, num_items, feature_dim):
        rng = np.random.default_rng(3)
        for _ in range(6):
            item_ids = rng.choice(num_items, size=5, replace=True)
            item_ids[1] = item_ids[0]  # at least one duplicate per push
            yield item_ids, rng.normal(0, 2, (5, feature_dim))

    def test_matches_dict_overlay_and_dense_item_sides(self, dataset, vbpr, features):
        overlaid = make_scorer(vbpr)
        oracle = DictOverlay(vbpr)
        shadow = np.array(features, copy=True)
        users = np.arange(dataset.num_users)
        for item_ids, new in self.pushes(vbpr.num_items, features.shape[1]):
            overlaid.update_item_features(item_ids, new)
            oracle.update(item_ids, new)
            for item, row in zip(item_ids, new):
                shadow[item] = row
            fresh = make_scorer(vbpr, features=shadow)
            assert overlaid.overlay_size == len(oracle.rows)
            for block in (users, users[3:9], users[:1]):
                scores = overlaid.score_block(block)
                np.testing.assert_array_equal(scores, oracle.score_block(block))
                np.testing.assert_allclose(
                    scores, fresh.score_block(block), rtol=1e-12, atol=0
                )
            columns = np.concatenate([item_ids, [0, vbpr.num_items - 1]])
            scores = overlaid.score_items(users, columns)
            np.testing.assert_array_equal(scores, oracle.score_items(users, columns))
            np.testing.assert_allclose(
                scores, fresh.score_items(users, columns), rtol=1e-12, atol=0
            )

    def test_escalation_folds_the_overlay_in(self, dataset, vbpr, features):
        scorer = make_scorer(vbpr)
        shadow = np.array(features, copy=True)
        users = np.arange(dataset.num_users)
        rng = np.random.default_rng(4)
        for item_ids in np.array_split(rng.permutation(vbpr.num_items), 8):
            new = rng.normal(0, 1, (item_ids.size, features.shape[1]))
            scorer.update_item_features(item_ids, new)
            shadow[item_ids] = new
            np.testing.assert_allclose(
                scorer.score_block(users),
                make_scorer(vbpr, features=shadow).score_block(users),
                rtol=1e-12,
                atol=0,
            )
        # Every item is pushed: the overlay covers the whole catalog.
        assert scorer.overlay_size == vbpr.num_items
