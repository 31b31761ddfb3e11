"""Unit tests for the invalidating top-N cache."""

import numpy as np
import pytest

from repro.serving import TopNCache


def make_cache(n=3, num_items=10, seen=None):
    return TopNCache(n, num_items, seen_items=seen)


class TestBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.get(0) is None
        cache.put(0, np.array([4, 2, 9]), np.array([3.0, 2.0, 1.0]))
        np.testing.assert_array_equal(cache.get(0), [4, 2, 9])
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert 0 in cache and len(cache) == 1

    def test_get_returns_copy(self):
        cache = make_cache()
        cache.put(0, np.array([4, 2, 9]), np.array([3.0, 2.0, 1.0]))
        served = cache.get(0)
        served[0] = 99
        np.testing.assert_array_equal(cache.get(0), [4, 2, 9])

    def test_put_validation(self):
        cache = make_cache(n=2)
        with pytest.raises(ValueError):
            cache.put(0, np.array([1, 2, 3]), np.array([3.0, 2.0, 1.0]))  # > n
        with pytest.raises(ValueError):
            cache.put(0, np.array([1]), np.array([1.0, 2.0]))  # misaligned
        with pytest.raises(ValueError):
            cache.put(0, np.array([1, 2]), np.array([1.0, 2.0]))  # increasing
        with pytest.raises(ValueError):
            cache.put(0, np.array([1, 99]), np.array([2.0, 1.0]))  # out of range

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TopNCache(0, 10)
        with pytest.raises(ValueError):
            TopNCache(3, 0)

    def test_n_caps_at_num_items(self):
        assert TopNCache(50, 10).n == 10

    def test_invalidate_and_clear(self):
        cache = make_cache()
        cache.put(0, np.array([1]), np.array([1.0]))
        cache.put(1, np.array([2]), np.array([1.0]))
        assert cache.invalidate([0, 5]) == 1
        assert cache.cached_users() == [1]
        cache.clear()
        assert len(cache) == 0


class TestInvalidation:
    """The fine-grained rules: head membership and threshold crossing."""

    def put_entry(self, cache, user=0):
        # head = {4, 2, 9} with scores 3 > 2 > 1; threshold = 1.
        cache.put(user, np.array([4, 2, 9]), np.array([3.0, 2.0, 1.0]))

    def test_update_below_threshold_keeps_entry(self):
        cache = make_cache()
        self.put_entry(cache)
        out = cache.apply_update([0], np.array([7]), np.array([[0.5]]))
        assert out == []
        assert 0 in cache

    def test_update_reaching_threshold_invalidates(self):
        cache = make_cache()
        self.put_entry(cache)
        out = cache.apply_update([0], np.array([7]), np.array([[1.0]]))  # tie
        assert out == [0]
        assert 0 not in cache
        assert cache.stats.invalidations == 1

    def test_update_of_head_item_invalidates_even_if_score_drops(self):
        cache = make_cache()
        self.put_entry(cache)
        out = cache.apply_update([0], np.array([9]), np.array([[-50.0]]))
        assert out == [0]

    def test_seen_item_cannot_enter(self):
        cache = make_cache(seen=[{7}])
        self.put_entry(cache)
        out = cache.apply_update([0], np.array([7]), np.array([[100.0]]))
        assert out == []
        assert 0 in cache

    def test_mixed_users(self):
        cache = make_cache()
        self.put_entry(cache, user=0)
        cache.put(1, np.array([5, 6, 8]), np.array([9.0, 8.0, 7.0]))
        # Item 7 scores 2.0 for user 0 (enters: >= 1) and 2.0 for user 1
        # (stays out: < 7).
        out = cache.apply_update([0, 1], np.array([7]), np.array([[2.0], [2.0]]))
        assert out == [0]
        assert 1 in cache and 0 not in cache

    def test_uncached_users_ignored(self):
        cache = make_cache()
        self.put_entry(cache, user=0)
        cache.invalidate([0])
        out = cache.apply_update([0], np.array([7]), np.array([[100.0]]))
        assert out == []

    def test_shape_validation(self):
        cache = make_cache()
        self.put_entry(cache)
        with pytest.raises(ValueError):
            cache.apply_update([0], np.array([7, 8]), np.array([[1.0]]))

    def test_stats_track_update_batches(self):
        cache = make_cache()
        self.put_entry(cache)
        cache.apply_update([0], np.array([7]), np.array([[0.0]]))
        assert cache.stats.update_batches == 1
        assert cache.stats.as_dict()["update_batches"] == 1


class ReferenceCache:
    """The per-user invalidation rule, one Python entry per user.

    The oracle the slot-array cache is pinned to: a dict of
    ``user -> (items, threshold)`` in insertion order, and
    ``apply_update`` as a loop over users checking head membership,
    then the threshold and the user's seen items.
    """

    def __init__(self, seen=None):
        self.seen = seen
        self.entries = {}

    def put(self, user, items, scores):
        self.entries[user] = (items.tolist(), float(scores[-1]))

    def invalidate(self, users):
        for user in users:
            self.entries.pop(int(user), None)

    def apply_update(self, users, item_ids, new_scores):
        updated = set(int(i) for i in item_ids)
        invalidated = []
        for row, user in enumerate(users):
            user = int(user)
            entry = self.entries.get(user)
            if entry is None:
                continue
            head_items, threshold = entry
            if not updated.isdisjoint(head_items):
                del self.entries[user]
                invalidated.append(user)
                continue
            candidates = np.flatnonzero(new_scores[row] >= threshold)
            if candidates.size:
                seen = self.seen[user] if self.seen is not None else ()
                if any(int(item_ids[idx]) not in seen for idx in candidates):
                    del self.entries[user]
                    invalidated.append(user)
        return invalidated


class TestInvalidationMatchesPerUserRule:
    """Random put/invalidate/clear/update sequences against the oracle.

    Scores are drawn from a handful of integers so new scores tie the
    thresholds often; pushes repeat item ids; update user lists mix
    cached, uncached and repeated users; dropped slots are reused.
    """

    NUM_USERS = 40
    NUM_ITEMS = 30
    N = 5

    def random_list(self, rng):
        length = int(rng.integers(1, self.N + 1))
        items = rng.choice(self.NUM_ITEMS, size=length, replace=False)
        scores = np.sort(rng.integers(0, 6, size=length).astype(np.float64))[::-1]
        return items, scores

    def check_same_state(self, cache, reference):
        assert cache.cached_users() == list(reference.entries)
        for user, (items, _) in reference.entries.items():
            assert cache.get(user).tolist() == items

    @pytest.mark.parametrize("with_seen", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_same_invalidated_list(self, seed, with_seen):
        rng = np.random.default_rng(seed)
        seen = None
        if with_seen:
            seen = [
                set(rng.choice(self.NUM_ITEMS, size=int(rng.integers(0, 8)), replace=False).tolist())
                for _ in range(self.NUM_USERS)
            ]
        cache = TopNCache(self.N, self.NUM_ITEMS, seen_items=seen)
        reference = ReferenceCache(seen)
        invalidated = 0
        for _ in range(300):
            op = rng.random()
            if op < 0.45:
                user = int(rng.integers(0, self.NUM_USERS))
                items, scores = self.random_list(rng)
                cache.put(user, items, scores)
                reference.put(user, items, scores)
            elif op < 0.55:
                users = rng.integers(0, self.NUM_USERS, size=int(rng.integers(1, 4)))
                cache.invalidate(users)
                reference.invalidate(users)
            elif op < 0.57:
                cache.clear()
                reference.entries.clear()
            else:
                users = cache.cached_users()
                extra = rng.integers(0, self.NUM_USERS, size=int(rng.integers(0, 4)))
                users = list(rng.permutation(users + extra.tolist()))
                item_ids = rng.integers(0, self.NUM_ITEMS, size=int(rng.integers(1, 5)))
                new_scores = rng.integers(0, 6, size=(len(users), item_ids.size)).astype(
                    np.float64
                )
                expected = reference.apply_update(users, item_ids, new_scores)
                assert cache.apply_update(users, item_ids, new_scores) == expected
                invalidated += len(expected)
            self.check_same_state(cache, reference)
        assert cache.stats.invalidations == invalidated > 0

    def test_rejects_item_ids_outside_the_catalog(self):
        cache = make_cache()
        cache.put(0, np.array([4, 2, 9]), np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            cache.apply_update([0], np.array([10]), np.array([[0.0]]))
        with pytest.raises(ValueError):
            cache.apply_update([0], np.array([-1]), np.array([[0.0]]))

    def test_dropped_slots_are_reused(self):
        cache = make_cache(n=3, num_items=10)
        for round_ in range(20):
            for user in range(10):
                cache.put(10 * round_ + user, np.array([1, 2]), np.array([2.0, 1.0]))
            if round_ % 2:
                cache.invalidate(cache.cached_users())
            else:
                cache.apply_update(cache.cached_users(), np.array([1]), np.zeros((10, 1)))
            assert len(cache) == 0
        assert cache._items.shape[0] == 16  # the first allocation, never grown

    def test_short_lists_pad_outside_the_catalog(self):
        # A one-item list must not be hit by an update to any other item.
        cache = make_cache(n=3, num_items=10)
        cache.put(0, np.array([0]), np.array([5.0]))
        assert cache.apply_update([0], np.array([9]), np.array([[1.0]])) == []
        np.testing.assert_array_equal(cache.get(0), [0])
