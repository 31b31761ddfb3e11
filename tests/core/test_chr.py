"""Unit tests for the Category Hit Ratio metric (Definition 5)."""

import numpy as np
import pytest

from repro.core import (
    category_hit_ratio,
    chr_by_category,
    chr_percent,
    chr_report,
    weighted_category_hit_ratio,
)


class TestCategoryHitRatio:
    def test_all_slots_from_category(self):
        lists = np.array([[0, 1], [1, 0]])
        assert category_hit_ratio(lists, np.array([0, 1])) == 1.0

    def test_no_slots_from_category(self):
        lists = np.array([[0, 1], [1, 0]])
        assert category_hit_ratio(lists, np.array([5, 6])) == 0.0

    def test_fraction(self):
        lists = np.array([[0, 1, 2, 3]])  # N=4, one user
        assert category_hit_ratio(lists, np.array([1, 3])) == pytest.approx(0.5)

    def test_averages_over_users(self):
        lists = np.array([[0, 1], [2, 3]])
        # Category {0,1}: user A has both slots, user B none -> 2/(2*2).
        assert category_hit_ratio(lists, np.array([0, 1])) == pytest.approx(0.5)

    def test_explicit_num_users_denominator(self):
        lists = np.array([[0, 1]])
        value = category_hit_ratio(lists, np.array([0, 1]), num_users=2)
        assert value == pytest.approx(0.5)

    def test_empty_category(self):
        lists = np.array([[0, 1]])
        assert category_hit_ratio(lists, np.zeros(0, dtype=int)) == 0.0

    def test_chr_percent(self):
        lists = np.array([[0, 1, 2, 3]])
        assert chr_percent(lists, np.array([0])) == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            category_hit_ratio(np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError):
            category_hit_ratio(np.zeros((2, 0), dtype=int), np.array([0]))
        with pytest.raises(ValueError):
            category_hit_ratio(np.array([[0]]), np.array([0]), num_users=0)


class TestChrByCategory:
    def test_sums_to_one_when_all_classified(self):
        lists = np.array([[0, 1, 2], [3, 4, 5]])
        item_classes = np.array([0, 0, 1, 1, 2, 2])
        values = chr_by_category(lists, item_classes, num_classes=3)
        assert values.sum() == pytest.approx(1.0)

    def test_matches_single_category_metric(self):
        rng = np.random.default_rng(0)
        item_classes = rng.integers(0, 4, size=50)
        lists = rng.integers(0, 50, size=(7, 10))
        values = chr_by_category(lists, item_classes, num_classes=4)
        for cls in range(4):
            expected = category_hit_ratio(lists, np.flatnonzero(item_classes == cls))
            assert values[cls] == pytest.approx(expected)

    def test_unknown_item_rejected(self):
        with pytest.raises(ValueError, match="unknown items"):
            chr_by_category(np.array([[9]]), np.array([0, 1]), num_classes=2)

    def test_negative_ids_rejected_with_clear_message(self):
        # A negative id would silently wrap around in the fancy index.
        with pytest.raises(ValueError, match="negative item ids"):
            chr_by_category(np.array([[-1]]), np.array([0, 1]), num_classes=2)

    def test_requires_1d_classes(self):
        with pytest.raises(ValueError):
            chr_by_category(np.array([[0]]), np.zeros((2, 2), dtype=int), num_classes=2)

    def test_requires_2d_lists(self):
        with pytest.raises(ValueError):
            chr_by_category(np.array([0, 1]), np.array([0, 1]), num_classes=2)

    def test_report_names_and_percent(self):
        lists = np.array([[0, 1], [0, 1]])
        item_classes = np.array([0, 1])
        report = chr_report(lists, item_classes, ["sock", "shoe"])
        assert report["sock"] == pytest.approx(50.0)
        assert report["shoe"] == pytest.approx(50.0)


class TestMembershipMask:
    """Category membership is a boolean item mask; the CHR floats equal
    those of the ``np.isin`` membership it replaced, bit for bit."""

    @staticmethod
    def isin_chr(lists, items, num_users=None):
        users, cutoff = lists.shape
        member = np.isin(lists, items)
        return float(member.sum() / (cutoff * (users if num_users is None else num_users)))

    @staticmethod
    def isin_weighted(lists, items):
        users, cutoff = lists.shape
        member = np.isin(lists, items)
        discounts = 1.0 / np.log2(np.arange(2, cutoff + 2))
        return float((member * discounts[None, :]).sum() / (discounts.sum() * users))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_lists_match_isin(self, seed):
        rng = np.random.default_rng(seed)
        num_items = int(rng.integers(5, 300))
        lists = rng.integers(0, num_items, size=(int(rng.integers(1, 40)), 10))
        # Category ids inside and outside the recommended range, unsorted,
        # with duplicates.
        items = rng.integers(0, 2 * num_items, size=int(rng.integers(1, 30)))
        assert category_hit_ratio(lists, items) == self.isin_chr(lists, items)
        assert category_hit_ratio(lists, items, num_users=97) == self.isin_chr(
            lists, items, 97
        )
        assert weighted_category_hit_ratio(lists, items) == self.isin_weighted(
            lists, items
        )

    def test_negative_and_empty_ids_match_isin(self):
        lists = np.array([[0, 3, -1], [2, -1, 5]])
        for items in (np.array([-1, 5]), np.array([-7, 9]), np.zeros(0, dtype=int)):
            assert category_hit_ratio(lists, items) == self.isin_chr(lists, items)
