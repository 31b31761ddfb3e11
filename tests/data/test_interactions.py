"""Unit tests for the synthetic implicit-feedback generator."""

import numpy as np
import pytest

from repro.data import InteractionConfig, generate_feedback
from repro.data.interactions import ImplicitFeedback


def small_feedback(seed=0, num_users=30, **config_kwargs):
    item_categories = np.repeat(np.arange(4), 10)  # 40 items, 4 categories
    popularity = [0.05, 0.45, 0.30, 0.20]
    config = InteractionConfig(**config_kwargs) if config_kwargs else None
    return generate_feedback(
        item_categories, popularity, num_users=num_users, config=config, seed=seed
    )


class TestGeneration:
    def test_shapes(self):
        fb = small_feedback()
        assert fb.num_users == 30
        assert fb.num_items == 40
        assert len(fb.train_items) == 30

    def test_min_interactions_respected(self):
        fb = small_feedback()
        for user in range(fb.num_users):
            total = len(fb.train_items[user]) + (1 if fb.test_items[user] >= 0 else 0)
            assert total >= 5

    def test_min_interactions_when_rejection_sampling_gives_up(self):
        # 6 items, one category at 0.16 popularity: user 2's attempts run
        # out at 4 distinct items unless the generator tops up.
        item_categories = np.repeat(np.arange(2), 3)
        fb = generate_feedback(
            item_categories, [0.15789473684210525, 0.8421052631578947], num_users=3, seed=100406
        )
        fb.validate_split()
        for user in range(fb.num_users):
            assert len(fb.train_items[user]) + 1 >= 5

    def test_deterministic(self):
        a, b = small_feedback(seed=3), small_feedback(seed=3)
        assert np.array_equal(a.test_items, b.test_items)
        for ia, ib in zip(a.train_items, b.train_items):
            assert np.array_equal(ia, ib)

    def test_different_seeds_differ(self):
        a, b = small_feedback(seed=1), small_feedback(seed=2)
        assert any(
            not np.array_equal(ia, ib) for ia, ib in zip(a.train_items, b.train_items)
        )

    def test_no_duplicate_interactions_per_user(self):
        fb = small_feedback()
        for items in fb.train_items:
            assert len(items) == len(set(items.tolist()))

    def test_leave_one_out_invariant(self):
        fb = small_feedback()
        fb.validate_split()  # should not raise

    def test_popular_category_gets_more_interactions(self):
        fb = small_feedback(num_users=200)
        counts = fb.item_interaction_counts()
        # category 1 (popularity .45) vs category 0 (popularity .05)
        popular = counts[10:20].sum()
        unpopular = counts[:10].sum()
        assert popular > 2 * unpopular

    def test_zipf_within_category(self):
        fb = small_feedback(num_users=400, zipf_exponent=1.2)
        counts = fb.item_interaction_counts()
        # first item of the popular category should beat its last item
        assert counts[10] > counts[19]

    def test_empty_category_tolerated(self):
        item_categories = np.array([0, 0, 0, 2, 2, 2, 2, 2, 2, 2])  # category 1 empty
        fb = generate_feedback(item_categories, [0.3, 0.4, 0.3], num_users=10, seed=0)
        assert fb.num_interactions >= 50

    def test_all_empty_categories_raise(self):
        with pytest.raises(ValueError):
            generate_feedback(np.array([5]), [0.5, 0.5], num_users=2)

    def test_no_items_raises(self):
        with pytest.raises(ValueError):
            generate_feedback(np.zeros(0, dtype=int), [1.0], num_users=3)

    def test_zero_users_raises(self):
        with pytest.raises(ValueError):
            generate_feedback(np.zeros(5, dtype=int), [1.0], num_users=0)


class TestImplicitFeedbackContainer:
    def test_num_interactions_counts_test_items(self):
        fb = ImplicitFeedback(
            num_users=2,
            num_items=5,
            train_items=[np.array([0, 1]), np.array([2])],
            test_items=np.array([3, -1]),
        )
        assert fb.num_interactions == 4
        assert fb.num_train_interactions == 3

    def test_dense_matrix(self):
        fb = ImplicitFeedback(
            num_users=2,
            num_items=3,
            train_items=[np.array([0]), np.array([1, 2])],
            test_items=np.array([-1, -1]),
        )
        expected = np.array([[1.0, 0, 0], [0, 1, 1]])
        np.testing.assert_array_equal(fb.to_dense_matrix(), expected)

    def test_positive_sets(self):
        fb = small_feedback()
        sets = fb.positive_sets()
        assert len(sets) == fb.num_users
        assert all(isinstance(s, set) for s in sets)

    def test_out_of_range_items_rejected(self):
        with pytest.raises(ValueError):
            ImplicitFeedback(
                num_users=1,
                num_items=3,
                train_items=[np.array([7])],
                test_items=np.array([-1]),
            )

    def test_wrong_user_count_rejected(self):
        with pytest.raises(ValueError):
            ImplicitFeedback(
                num_users=2,
                num_items=3,
                train_items=[np.array([0])],
                test_items=np.array([-1, -1]),
            )

    def test_validate_split_detects_leak(self):
        fb = ImplicitFeedback(
            num_users=1,
            num_items=3,
            train_items=[np.array([0, 1])],
            test_items=np.array([1]),
        )
        with pytest.raises(AssertionError):
            fb.validate_split()


class TestConfigValidation:
    def test_bad_min_interactions(self):
        with pytest.raises(ValueError):
            InteractionConfig(min_interactions=0)

    def test_bad_concentration(self):
        with pytest.raises(ValueError):
            InteractionConfig(affinity_concentration=0)

    def test_bad_exploration(self):
        with pytest.raises(ValueError):
            InteractionConfig(exploration=2.0)

    def test_bad_extra_mean(self):
        with pytest.raises(ValueError):
            InteractionConfig(extra_interactions_mean=-1)
