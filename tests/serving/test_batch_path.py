"""The batched read path against the per-user loop it replaces.

``ShardRouter.recommend_batch`` sends one ``recommend_many`` to every
owning shard before it waits for any reply, and each shard fills its
misses as blocks: one ``score_block`` per chunk, one ``argpartition``
and one stable ``argsort`` along the rows, one ``TopNCache.put_many``
and one ``RollingChrMonitor.observe_many``.  The contract is the
per-user loop's meaning: the same served lists, the same cache counters
and the same monitor state.

Scores are the one place the two paths may differ: a block GEMM row can
differ from the one-row product by BLAS rounding, so scores are held to
a 1e-15 bound, and the lists on these fixtures must match exactly.  CI
runs this module under ``REPRO_RACE_CHECK=1`` as well, so the shm-write
sentinel shows the block path never writes the shared item side.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.data import tiny_dataset
from repro.recommenders import VBPR, VBPRConfig
from repro.rng import derive_rng
from repro.serving import ShardedService, TopNCache
from repro.serving.sharded import build_synthetic_system, segment_exists
from repro.serving.sharded.shard import RollingChrMonitor, Shard

N = 10
FEATURE_DIM = 12
SCORE_BOUND = 1e-15


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=0, image_size=16)


@pytest.fixture(scope="module")
def features(dataset):
    rng = np.random.default_rng(11)
    base = rng.normal(0, 1, (dataset.num_categories, FEATURE_DIM))
    return base[dataset.item_categories] + rng.normal(
        0, 0.3, (dataset.num_items, FEATURE_DIM)
    )


@pytest.fixture(scope="module")
def model(dataset, features):
    return VBPR(
        dataset.num_users, dataset.num_items, features, VBPRConfig(epochs=4, seed=0)
    ).fit(dataset.feedback)


def _fleet(model, dataset, features, num_shards, backend="local", **kwargs):
    return ShardedService.build(
        model,
        num_shards=num_shards,
        backend=backend,
        feedback=dataset.feedback,
        features=np.array(features, copy=True),
        item_classes=dataset.item_categories,
        class_names=dataset.registry.names,
        n=N,
        monitor_window=16,
        **kwargs,
    )


def _batches(num_users, num_items):
    """Batches with duplicates, hits and misses, around two pushes."""
    rng = np.random.default_rng(5)
    first = rng.integers(0, num_users, 40)
    first[7] = first[3]  # a user repeated inside one batch
    second = np.concatenate([first[:15], rng.integers(0, num_users, 30), first[:3]])
    push = (rng.choice(num_items, 3, replace=False), rng.normal(0, 2.0, (3, FEATURE_DIM)))
    third = np.concatenate([second, rng.integers(0, num_users, 10)])
    return [(first, None), (second, 6), ("push", push), (third, None), (first, 3)]


def _drive(service, steps, batched):
    served = []
    for users, n in steps:
        if isinstance(users, str):
            service.push_item_features(*n)
        elif batched:
            served.append(service.recommend_batch(users, n=n))
        else:
            served.append(np.stack([service.recommend(int(u), n=n) for u in users]))
    return served


def _monitor_state(service):
    return [
        (s["monitor"]["counts"], s["monitor"]["slots"], s["monitor"]["observed"])
        for s in service.stats()["per_shard"]
    ]


# --------------------------------------------------------------------- #
# recommend_batch / recommend_many against the per-user loop
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_local_batches_match_the_per_user_loop(model, dataset, features, num_shards):
    steps = _batches(dataset.num_users, dataset.num_items)
    looped = _fleet(model, dataset, features, num_shards)
    batched = _fleet(model, dataset, features, num_shards)
    try:
        expected = _drive(looped, steps, batched=False)
        for want, got in zip(expected, _drive(batched, steps, batched=True)):
            np.testing.assert_array_equal(got, want)
        loop_stats, batch_stats = looped.stats(), batched.stats()
        assert batch_stats["cache"] == loop_stats["cache"]
        assert batch_stats["cache"]["invalidations"] > 0  # the push dropped lists
        for want, got in zip(loop_stats["per_shard"], batch_stats["per_shard"]):
            assert got["cache"] == want["cache"]
            assert got["cache_size"] == want["cache_size"]
        assert _monitor_state(batched) == _monitor_state(looped)
        for want, got in zip(looped.router.handles, batched.router.handles):
            assert got.shard.index.cached_users() == want.shard.index.cached_users()
    finally:
        looped.close()
        batched.close()


def test_process_batches_match_the_per_user_loop(model, dataset, features):
    steps = _batches(dataset.num_users, dataset.num_items)
    looped = _fleet(model, dataset, features, 2)
    batched = _fleet(model, dataset, features, 2, backend="process")
    segment = batched.segment_name
    try:
        expected = _drive(looped, steps, batched=False)
        for want, got in zip(expected, _drive(batched, steps, batched=True)):
            np.testing.assert_array_equal(got, want)
        assert batched.stats()["cache"] == looped.stats()["cache"]
        assert _monitor_state(batched) == _monitor_state(looped)
        assert batched.router.fallback_requests == 0
        assert batched.router.failovers == 0
        # Every ticket was collected: nothing is left for flush to drain.
        assert all(not h._outstanding and not h._acks for h in batched.router.handles)
        assert batched.flush() == []
    finally:
        looped.close()
        batched.close()
    assert not segment_exists(segment)


def test_recommend_many_means_the_loop_on_one_shard(model, dataset, features):
    looped = _fleet(model, dataset, features, 1)
    batched = _fleet(model, dataset, features, 1)
    loop_shard = looped.router.handles[0].shard
    batch_shard = batched.router.handles[0].shard
    try:
        users = np.array([4, 9, 4, 4, 17, 9, 30, 2])
        batch_shard.recommend(9)  # a hit before the batch
        loop_shard.recommend(9)
        got = batch_shard.recommend_many(users, n=4)
        want = np.stack([loop_shard.recommend(int(u), n=4) for u in users])
        np.testing.assert_array_equal(got, want)
        assert batch_shard.index.stats == loop_shard.index.stats
        assert batch_shard.index.stats.misses == 5  # 9 before the batch; 4, 17, 30, 2
        monitor, reference = batch_shard.monitor, loop_shard.monitor
        np.testing.assert_array_equal(monitor._ring, reference._ring)
        assert monitor.observed == reference.observed
        # Seen items stay masked on the block path.
        for user, row in zip(users.tolist(), got):
            assert not set(row.tolist()) & set(dataset.feedback.train_items[user].tolist())
    finally:
        looped.close()
        batched.close()


def test_fault_injecting_handles_pass_the_split_calls_through(model, dataset, features):
    from repro.serving.sharded import FaultInjectingHandle

    wrapped = _fleet(model, dataset, features, 2)
    plain = _fleet(model, dataset, features, 2)
    wrapped.router.handles = [FaultInjectingHandle(h) for h in wrapped.router.handles]
    users = np.arange(0, dataset.num_users, 3)
    try:
        np.testing.assert_array_equal(
            wrapped.recommend_batch(users), plain.recommend_batch(users)
        )
        assert len(wrapped.ping()) == 2
        assert wrapped.stats()["cache"] == plain.stats()["cache"]
    finally:
        wrapped.close()
        plain.close()


def test_recommend_many_checks_every_user_before_any_state(model, dataset, features):
    service = _fleet(model, dataset, features, 2)
    shard = service.router.handles[0].shard
    try:
        with pytest.raises(ValueError, match="not owned"):
            shard.recommend_many([0, 2, 1])
        with pytest.raises(ValueError, match="serving cutoff"):
            shard.recommend_many([0], n=N + 1)
        assert len(shard.index) == 0 and shard.index.stats.misses == 0
        assert shard.monitor.observed == 0
    finally:
        service.close()


def test_fill_chunks_stay_within_the_byte_budget(model, dataset, features, monkeypatch):
    from repro.serving.sharded import shard as shard_module

    service = _fleet(model, dataset, features, 1)
    shard = service.router.handles[0].shard
    rows_per_chunk = 3
    monkeypatch.setattr(
        shard_module, "FILL_BLOCK_BYTES", rows_per_chunk * 8 * dataset.num_items
    )
    blocks = []
    score_block = shard.scorer.score_block
    monkeypatch.setattr(
        shard.scorer,
        "score_block",
        lambda users: blocks.append(len(users)) or score_block(users),
    )
    try:
        users = np.arange(0, 20)
        shard.recommend_many(users)
        assert max(blocks) == rows_per_chunk and sum(blocks) == users.size
    finally:
        service.close()


def test_push_refill_chunks_cover_every_invalidated_user(
    model, dataset, features, monkeypatch
):
    from repro.serving.sharded import shard as shard_module

    service = _fleet(model, dataset, features, 1)
    shard = service.router.handles[0].shard
    rows_per_chunk = 2
    monkeypatch.setattr(
        shard_module, "FILL_BLOCK_BYTES", rows_per_chunk * 8 * dataset.num_items
    )
    users = np.arange(dataset.num_users)
    try:
        shard.recommend_many(users)
        blocks = []
        score_block = shard.scorer.score_block
        monkeypatch.setattr(
            shard.scorer,
            "score_block",
            lambda chunk: blocks.append(len(chunk)) or score_block(chunk),
        )
        items = np.arange(6)
        pushed = features[items] + np.random.default_rng(3).normal(0, 2.0, (6, FEATURE_DIM))
        report = service.push_item_features(items, pushed)
        assert report.num_invalidated > rows_per_chunk
        assert max(blocks) == rows_per_chunk and sum(blocks) == report.num_invalidated
        assert len(shard.index) == dataset.num_users
        assert shard.index.stats.puts == dataset.num_users + report.num_invalidated
    finally:
        service.close()


def test_nonvisual_push_refills_nothing(dataset):
    from repro.recommenders import BPRMF, BPRMFConfig

    bprmf = BPRMF(dataset.num_users, dataset.num_items, BPRMFConfig(epochs=2, seed=0))
    bprmf.fit(dataset.feedback)
    service = ShardedService.build(
        bprmf, num_shards=1, backend="local", feedback=dataset.feedback, n=N
    )
    try:
        service.recommend_batch(np.arange(dataset.num_users))
        before = service.stats()["cache"]
        report = service.push_item_features([0, 1], None)
        assert not report.scores_changed and report.num_invalidated == 0
        assert service.stats()["cache"]["puts"] == before["puts"] == dataset.num_users
    finally:
        service.close()


# --------------------------------------------------------------------- #
# The score contract: block GEMM rows vs one-row products
# --------------------------------------------------------------------- #
def test_block_scores_are_within_rounding_and_lists_are_equal(model, dataset, features):
    service = _fleet(model, dataset, features, 1)
    shard = service.router.handles[0].shard
    try:
        users = np.arange(dataset.num_users)
        block = shard.scorer.score_block(users)
        rows = np.stack([shard.scorer.score_block([u])[0] for u in users])
        assert np.max(np.abs(block - rows)) <= SCORE_BOUND
        shard._fill(users)
        for user in users.tolist():
            items, scores = shard._compute_entry(user)
            np.testing.assert_array_equal(shard.index.take([user], N)[0], items)
            slot = shard.index._slot_of[user]
            assert abs(shard.index._threshold[slot] - scores[-1]) <= SCORE_BOUND
    finally:
        service.close()


def test_warm_start_through_the_fill_matches_computed_entries(model, dataset, features):
    scores = model.score_all(features=features)
    warmed = _fleet(model, dataset, features, 2)
    computed = _fleet(model, dataset, features, 2)
    try:
        assert warmed.warm_start(scores) == dataset.num_users
        users = np.arange(dataset.num_users)
        np.testing.assert_array_equal(
            warmed.recommend_batch(users), computed.recommend_batch(users)
        )
        assert warmed.stats()["cache"]["misses"] == 0
    finally:
        warmed.close()
        computed.close()


def test_block_ranking_breaks_ties_as_the_one_row_path(model, dataset, features):
    service = _fleet(model, dataset, features, 1)
    shard = service.router.handles[0].shard
    rng = np.random.default_rng(2)
    scores = rng.integers(0, 4, (dataset.num_users, dataset.num_items)).astype(float)
    try:
        shard.warm_start(scores)  # ties everywhere, seen items masked
        for user in range(dataset.num_users):
            row = scores[user].copy()
            row[dataset.feedback.train_items[user]] = -np.inf
            head = np.argpartition(-row, N - 1)[:N]
            items = head[np.argsort(-row[head], kind="stable")]
            np.testing.assert_array_equal(shard.index.take([user], N)[0], items)
    finally:
        service.close()


# --------------------------------------------------------------------- #
# TopNCache.put_many / RollingChrMonitor.observe_many against their loops
# --------------------------------------------------------------------- #
def _cache_state(cache):
    used = cache._used
    return (
        list(cache._slot_of.items()),
        list(cache._free),
        used,
        cache._items.shape[0],
        cache._items[:used].tolist(),
        cache._length[:used].tolist(),
        cache._threshold[:used].tolist(),
        cache.stats,
    )


def _random_block(rng, users, length, num_items):
    items = np.stack([rng.choice(num_items, length, replace=False) for _ in users])
    scores = -np.sort(-rng.normal(size=(len(users), length)), axis=1)
    return items, scores


def test_put_many_leaves_the_state_of_a_put_loop():
    rng = np.random.default_rng(0)
    one, many = TopNCache(6, 50), TopNCache(6, 50)
    for length, users in [
        (6, [3, 8, 3, 11]),  # a repeated user: its last row wins
        (4, list(range(20, 45))),  # grows the slot arrays past 16 and 32
        (6, [8, 21, 99]),  # overwrites next to a new slot
    ]:
        items, scores = _random_block(rng, users, length, 50)
        for user, row, top in zip(users, items, scores):
            one.put(user, row, top)
        many.put_many(users, items, scores)
        assert _cache_state(many) == _cache_state(one)
        for cache in (one, many):
            cache.invalidate([3, 22, 23])  # free slots for the next block to reuse
    many.put_many(np.empty(0, dtype=np.int64), np.empty((0, 6)), np.empty((0, 6)))
    assert _cache_state(many) == _cache_state(one)


@pytest.mark.parametrize(
    "users, items, scores, match",
    [
        ([1, 2], np.zeros(6, dtype=np.int64), np.zeros(6), "aligned"),
        ([1, 2], np.zeros((2, 6), dtype=np.int64), np.zeros((2, 5)), "aligned"),
        ([1], np.zeros((2, 6), dtype=np.int64), np.zeros((2, 6)), "aligned"),
        ([1], np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0)), "list length"),
        ([1], np.zeros((1, 7), dtype=np.int64), np.zeros((1, 7)), "list length"),
        ([1], np.full((1, 6), 50), np.zeros((1, 6)), "outside the catalog"),
        ([1], np.full((1, 6), -1), np.zeros((1, 6)), "outside the catalog"),
        ([1], np.arange(6)[None, :], np.arange(6.0)[None, :], "non-increasing"),
    ],
)
def test_put_many_rejects_malformed_blocks(users, items, scores, match):
    cache = TopNCache(6, 50)
    with pytest.raises(ValueError, match=match):
        cache.put_many(users, items, scores)
    assert len(cache) == 0 and cache.stats.puts == 0


def test_lookup_many_and_take_count_like_get():
    one, many = TopNCache(3, 20), TopNCache(3, 20)
    for cache in (one, many):
        cache.put(5, [1, 2, 3], [3.0, 2.0, 1.0])
    users = [5, 7, 7, 9, 5, 9]
    for user in users:
        if one.get(user) is None:
            one.put(user, [4, 5, 6], [3.0, 2.0, 1.0])
    missing = many.lookup_many(users)
    assert missing.tolist() == [7, 9]
    many.put_many(missing, np.tile([4, 5, 6], (2, 1)), np.tile([3.0, 2.0, 1.0], (2, 1)))
    assert many.stats == one.stats
    assert many.take(users, 2).tolist() == [one.get(u)[:2].tolist() for u in users]
    with pytest.raises(ValueError, match="no cached entry"):
        many.take([6], 2)
    with pytest.raises(ValueError, match="within every entry"):
        many.take([5], 4)


def _monitor_snapshot(monitor):
    return monitor._ring.tolist(), monitor._counts.tolist(), monitor._slots, monitor.observed


@pytest.mark.parametrize("window", [1, 4, 7])
def test_observe_many_leaves_the_state_of_an_observe_loop(window):
    rng = np.random.default_rng(window)
    classes = rng.integers(0, 3, 40)
    one = RollingChrMonitor(classes, ["a", "b", "c"], window=window)
    many = RollingChrMonitor(classes, ["a", "b", "c"], window=window)
    # Empty, shorter than, equal to and several times longer than the window.
    for lists, length in [(0, 5), (2, 5), (window, 3), (3 * window + 2, 4), (1, 0), (5, 2)]:
        block = rng.integers(0, 40, (lists, length))
        for row in block:
            one.observe(row)
        many.observe_many(block)
        assert _monitor_snapshot(many) == _monitor_snapshot(one)
        assert many.snapshot() == one.snapshot()


@pytest.mark.parametrize(
    "block, match",
    [
        (np.arange(4), "block"),
        (np.zeros((2, 2, 2), dtype=np.int64), "block"),
        (np.array([[0, 40]]), "outside the catalog"),
        (np.array([[0, -1]]), "outside the catalog"),
    ],
)
def test_observe_many_rejects_malformed_blocks(block, match):
    monitor = RollingChrMonitor(np.zeros(40, dtype=np.int64), ["a"], window=4)
    with pytest.raises(ValueError, match=match):
        monitor.observe_many(block)
    assert monitor.observed == 0 and monitor._slots == 0


# --------------------------------------------------------------------- #
# A worker killed in the middle of a batch
# --------------------------------------------------------------------- #
@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs POSIX signals")
def test_sigkill_mid_batch_fails_over_only_that_shard(monkeypatch):
    model, item_classes, class_names, counts = build_synthetic_system(
        300, 40, feature_dim=8, seed=4
    )
    users = np.arange(0, 60)
    # The in-process reference answers before the patch below, which it
    # would otherwise run (and sleep in) itself.
    with ShardedService.build(model, num_shards=2, backend="local", n=5) as reference:
        expected = reference.recommend_batch(users)
    recommend_many = Shard.recommend_many

    def slow_on_shard_one(self, users, n=None):
        if self.shard_id == 1:
            time.sleep(30.0)  # killed long before it could reply
        return recommend_many(self, users, n)

    # Forked workers inherit the patch.
    monkeypatch.setattr(Shard, "recommend_many", slow_on_shard_one)
    service = ShardedService.build(
        model, num_shards=2, backend="process", fallback_counts=counts, n=5
    )
    router = service.router
    first, second = router.handles
    collect = first.collect

    def kill_the_other_then_collect(ticket, timeout_s=None):
        first.collect = collect  # only the first batch kills
        os.kill(second._proc.pid, signal.SIGKILL)  # both requests are out
        return collect(ticket, timeout_s)

    monkeypatch.setattr(first, "collect", kill_the_other_then_collect)
    try:
        started = time.monotonic()
        served = router.recommend_batch(users)
        assert time.monotonic() - started < 10.0
        live = users % 2 == 0
        np.testing.assert_array_equal(served[live], expected[live])
        for user, row in zip(users[~live].tolist(), served[~live]):
            np.testing.assert_array_equal(row, router.fallback.recommend(user, 5))
        assert router.healthy_shards() == [0]
        assert router.failovers == 1
        assert router.fallback_requests == int((~live).sum())
        # The live shard keeps serving; the dead one stays failed over.
        np.testing.assert_array_equal(router.recommend_batch([2, 4]), expected[[2, 4]])
    finally:
        service.close()


# --------------------------------------------------------------------- #
# The synthetic system is built straight from its drawn state
# --------------------------------------------------------------------- #
def test_synthetic_system_state_is_bitwise_the_load_state_dict_build():
    users, items, feature_dim, seed = 120, 30, 16, 9
    model, *_ = build_synthetic_system(users, items, feature_dim=feature_dim, seed=seed)
    # The previous recipe: a randomly initialised VBPR, then load_state_dict.
    old = VBPR(users, items, model.features, VBPRConfig(seed=seed))
    old.load_state_dict(
        {
            name: derive_rng(seed, f"synthetic.{name}").normal(0.0, 0.1, value.shape)
            for name, value in old.state_dict().items()
        }
    )
    assert model.is_fitted
    new_state, old_state = model.state_dict(), old.state_dict()
    assert list(new_state) == list(old_state)
    for name in old_state:
        assert new_state[name].dtype == old_state[name].dtype
        assert new_state[name].tobytes() == old_state[name].tobytes(), name
    assert model.config == old.config


def test_vbpr_from_state_keeps_the_load_state_dict_checks():
    model, *_ = build_synthetic_system(20, 10, feature_dim=8, seed=1)
    state = model.state_dict()
    rebuilt = VBPR(20, 10, model.features, model.config, state=state)
    assert rebuilt.is_fitted
    np.testing.assert_array_equal(rebuilt.score_all(), model.score_all())
    with pytest.raises(ValueError, match="missing keys"):
        VBPR(20, 10, model.features, model.config, state={"user_factors": state["user_factors"]})
    with pytest.raises(ValueError, match="unexpected keys"):
        VBPR(20, 10, model.features, model.config, state={**state, "extra": np.zeros(1)})
    bad = dict(state, embedding=np.zeros((8, 3)))
    with pytest.raises(ValueError, match="embedding"):
        VBPR(20, 10, model.features, model.config, state=bad)
