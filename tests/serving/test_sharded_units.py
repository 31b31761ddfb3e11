"""Unit coverage for the sharded serving tier.

Epoch-ordered update application (out-of-order delivery cannot
resurrect stale cache entries), shared-memory bundle round-trips and
teardown, partition invariance, derived load-generator streams,
failover to the MostPop fallback, the process transport's failure
contracts (backpressure, worker death, no pipe deadlock, clean
shutdown), and the block-shaped warm-start slice on
:class:`RecommenderService`.
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.rng import derive_rng, rng_from_seed
from repro.serving import (
    MostPopFallback,
    RecommenderService,
    ShardedService,
    ZipfLoadGenerator,
)
from repro.serving.sharded import (
    ArrayBank,
    SharedArrayBundle,
    UserPartition,
    attach_bundle,
    build_synthetic_system,
    segment_exists,
)
from repro.serving.sharded.shard import Shard
from repro.serving.sharded.scorer import SharedScorer, compute_item_side
from repro.serving.sharded.worker import LocalShardHandle, ShardError, ShardTimeout
from repro.telemetry import MetricsRegistry, install_metrics


def _local_shard(model, user_ids, n=6, max_pending=8):
    kind, arrays = compute_item_side(model)
    bank = ArrayBank.snapshot(arrays)
    scorer = SharedScorer(
        kind,
        bank,
        num_users=model.num_users,
        num_items=model.num_items,
        user_ids=np.asarray(user_ids, dtype=np.int64),
        user_factors=model.user_factors[user_ids],
        visual_user_factors=model.visual_user_factors[user_ids],
    )
    return Shard(0, scorer, n=n, max_pending=max_pending)


@pytest.fixture(scope="module")
def system():
    return build_synthetic_system(40, 30, feature_dim=10, seed=7)


# --------------------------------------------------------------------- #
# Epoch ordering
# --------------------------------------------------------------------- #
class TestEpochOrdering:
    def test_out_of_order_delivery_cannot_resurrect_stale_entries(self, system):
        model, *_ = system
        shard = _local_shard(model, np.arange(model.num_users))
        rng = rng_from_seed(21)
        items = np.array([3, 8])
        feats_a = model.features[items] + rng.normal(0, 2.0, (2, model.feature_dim))
        feats_b = model.features[items] + rng.normal(0, 2.0, (2, model.feature_dim))

        baseline = {u: shard.recommend(u).copy() for u in range(model.num_users)}

        # Epoch 2 arrives first: it must be BUFFERED, not applied — an
        # eager application followed by the late epoch 1 would re-score
        # with older features and resurrect pre-attack lists.
        report = shard.submit_update(2, items, feats_b)
        assert report.buffered and not report.applied_epochs
        assert shard.applied_epoch == 0 and shard.pending_epochs == [2]
        for u in range(model.num_users):
            np.testing.assert_array_equal(shard.recommend(u), baseline[u])

        # Epoch 1 fills the gap: both apply, in order, atomically.
        report = shard.submit_update(1, items, feats_a)
        assert report.applied_epochs == [1, 2]
        assert shard.applied_epoch == 2 and not shard.pending_epochs
        after = {u: shard.recommend(u).copy() for u in range(model.num_users)}

        # In-order ground truth on a fresh shard.
        ordered = _local_shard(model, np.arange(model.num_users))
        for u in range(model.num_users):
            ordered.recommend(u)
        ordered.submit_update(1, items, feats_a)
        ordered.submit_update(2, items, feats_b)
        for u in range(model.num_users):
            np.testing.assert_array_equal(after[u], ordered.recommend(u))

        # A replayed stale epoch is dropped outright: no invalidation,
        # no rescore, nothing served changes.
        stats_before = shard.index.stats.as_dict()
        report = shard.submit_update(1, items, feats_a)
        assert report.stale and shard.stale_updates == 1
        assert shard.applied_epoch == 2
        assert shard.index.stats.as_dict()["invalidations"] == (
            stats_before["invalidations"]
        )
        for u in range(model.num_users):
            np.testing.assert_array_equal(shard.recommend(u), after[u])

    def test_duplicate_pending_epoch_is_dropped(self, system):
        model, *_ = system
        shard = _local_shard(model, np.arange(model.num_users))
        items = np.array([1])
        feats = model.features[items] + 1.0
        assert shard.submit_update(5, items, feats).buffered
        assert shard.submit_update(5, items, feats).stale

    def test_pending_backlog_is_bounded(self, system):
        model, *_ = system
        shard = _local_shard(model, np.arange(model.num_users), max_pending=3)
        items = np.array([0])
        feats = model.features[items]
        for epoch in (2, 3, 4):  # epoch 1 never arrives: gap persists
            shard.submit_update(epoch, items, feats)
        with pytest.raises(RuntimeError, match="backlog"):
            shard.submit_update(5, items, feats)


# --------------------------------------------------------------------- #
# Shared memory
# --------------------------------------------------------------------- #
class TestSharedMemory:
    def test_bundle_round_trip_and_teardown(self):
        rng = rng_from_seed(3)
        arrays = {
            "a": rng.normal(0, 1, (7, 5)),
            "b": rng.integers(0, 9, size=11).astype(np.int64),
            "c": rng.normal(0, 1, 13),
        }
        bundle = SharedArrayBundle(arrays)
        segment = bundle.manifest.segment
        assert segment_exists(segment)
        bank = attach_bundle(bundle.manifest)
        for key, expected in arrays.items():
            np.testing.assert_array_equal(bank[key], expected)
            assert not bank[key].flags.writeable
        bank.close()
        with pytest.raises(KeyError):
            bank["a"]  # stale handles fail loudly, not by segfault
        bundle.release()
        assert not segment_exists(segment)
        bundle.release()  # idempotent

    def test_offsets_are_aligned(self):
        arrays = {"x": np.ones(3), "y": np.ones((2, 2)), "z": np.ones(1)}
        bundle = SharedArrayBundle(arrays)
        try:
            for spec in bundle.manifest.arrays:
                assert spec.offset % 64 == 0
        finally:
            bundle.release()


# --------------------------------------------------------------------- #
# Partitioning + load generation
# --------------------------------------------------------------------- #
class TestPartition:
    def test_users_of_covers_universe_disjointly(self):
        partition = UserPartition(101, 4)
        seen = np.concatenate([partition.users_of(s) for s in range(4)])
        assert sorted(seen.tolist()) == list(range(101))

    def test_split_stream_is_shard_count_invariant(self):
        generator = ZipfLoadGenerator(200, exponent=1.1, seed=4, stream="t.split")
        stream = generator.sample(500)
        per_user = {
            u: np.flatnonzero(stream == u) for u in np.unique(stream)
        }
        for num_shards in (1, 2, 4, 8):
            partition = UserPartition(200, num_shards)
            substreams = partition.split_stream(stream)
            assert sum(s.size for s in substreams) == stream.size
            for shard_id, sub in enumerate(substreams):
                assert np.all(sub % num_shards == shard_id)
                # Each user's request subsequence survives the split
                # in order — the property the equivalence suite leans on.
                for u in np.unique(sub):
                    assert np.count_nonzero(sub == u) == per_user[u].size


class TestLoadGeneratorStreams:
    def test_named_streams_are_independent_and_reproducible(self):
        base = ZipfLoadGenerator(64, seed=9, stream="shard.0").sample(100)
        again = ZipfLoadGenerator(64, seed=9, stream="shard.0").sample(100)
        other = ZipfLoadGenerator(64, seed=9, stream="shard.1").sample(100)
        np.testing.assert_array_equal(base, again)
        assert not np.array_equal(base, other)
        # And the derivation is exactly repro.rng.derive_rng, not an
        # ad-hoc reimplementation.
        assert derive_rng(9, "shard.0").permutation(64).tolist() != (
            derive_rng(9, "shard.1").permutation(64).tolist()
        )


# --------------------------------------------------------------------- #
# Failover
# --------------------------------------------------------------------- #
class TestFailover:
    def test_mostpop_fallback_skips_seen(self):
        counts = np.array([5.0, 9.0, 1.0, 9.0, 3.0])
        fallback = MostPopFallback(counts, seen_items={0: {1}, 1: set()})
        np.testing.assert_array_equal(fallback.recommend(0, 3), [3, 0, 4])
        np.testing.assert_array_equal(fallback.recommend(1, 3), [1, 3, 0])

    def test_dead_shard_fails_over_to_mostpop(self, system):
        model, item_classes, class_names, counts = system
        registry = MetricsRegistry()
        previous = install_metrics(registry)
        service = ShardedService.build(
            model,
            num_shards=2,
            backend="local",
            item_classes=item_classes,
            class_names=class_names,
            fallback_counts=counts,
            n=6,
        )
        try:
            healthy_list = service.recommend(2).copy()  # shard 0 user
            service.router.handles[1].stop()  # kill shard 1 under the router
            degraded = service.recommend(1)  # shard 1 user -> fallback
            expected = np.argsort(-counts, kind="stable")[:6]
            np.testing.assert_array_equal(degraded, expected)
            assert service.router.healthy_shards() == [0]
            assert service.router.failovers == 1
            # Healthy shards keep serving their own users untouched.
            np.testing.assert_array_equal(service.recommend(2), healthy_list)
            # Pushes skip the dead shard without raising; repeat requests
            # keep hitting the fallback but failover fires only once.
            service.push_item_features(
                np.array([0]), model.features[[0]] + 0.1
            )
            service.flush()
            service.recommend(1)
            assert service.router.failovers == 1
            snapshot = registry.snapshot()
            assert snapshot["serving.shard_failover"]["value"] == 1
            assert snapshot["serving.fallback.requests"]["value"] == 2
            aggregate = service.stats()
            assert aggregate["unhealthy_shards"] == 1
            assert aggregate["fallback_requests"] == 2
        finally:
            service.close()
            install_metrics(previous)

    def test_unhealthy_shard_without_fallback_raises(self, system):
        model, *_ = system
        service = ShardedService.build(model, num_shards=2, backend="local", n=6)
        try:
            service.router.handles[0].stop()
            with pytest.raises(ShardError, match="unhealthy"):
                service.recommend(0)
        finally:
            service.close()


# --------------------------------------------------------------------- #
# Process transport: failure contracts of the worker pipes
# --------------------------------------------------------------------- #
def _shard_children():
    return [p for p in mp.active_children() if p.name.startswith("repro-shard-")]


def _update(model, epoch):
    items = np.array([epoch % model.num_items])
    return {
        "epoch": epoch,
        "item_ids": items,
        "item_features": model.features[items] + 0.1 * epoch,
    }


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs POSIX signals")
class TestProcessTransport:
    @pytest.fixture()
    def process_service(self, system):
        model, item_classes, class_names, counts = system
        service = ShardedService.build(
            model,
            num_shards=2,
            backend="process",
            fallback_counts=counts,
            n=6,
            backlog=4,
        )
        yield service
        service.close()

    def test_stuck_worker_turns_backpressure_into_timeout(self, process_service, system):
        model, *_ = system
        handle = process_service.router.handles[0]
        os.kill(handle._proc.pid, signal.SIGSTOP)
        try:
            seqs = [handle.cast("update", _update(model, e)) for e in range(1, 5)]
            started = time.monotonic()
            with pytest.raises(ShardTimeout):
                handle.cast("update", _update(model, 5), timeout_s=0.3)
            assert time.monotonic() - started < 2.0
        finally:
            os.kill(handle._proc.pid, signal.SIGCONT)
        acks = handle.flush(timeout_s=10.0)
        assert len(acks) == len(seqs) == handle.backlog
        assert [ack["applied_epochs"] for ack in acks] == [[1], [2], [3], [4]]

    def test_killed_worker_is_a_typed_death_and_fails_over(self, process_service, system):
        *_, counts = system
        router = process_service.router
        handle = router.handles[1]
        os.kill(handle._proc.pid, signal.SIGKILL)
        with pytest.raises(ShardError) as info:
            handle.call("ping", timeout_s=10.0)
        assert info.value.kind == "WorkerDeath"
        started = time.monotonic()
        served = router.recommend(1)  # a shard-1 user
        assert time.monotonic() - started < 2.0
        np.testing.assert_array_equal(served, np.argsort(-counts, kind="stable")[:6])
        assert router.healthy_shards() == [0]

    def test_large_warm_completes_while_casts_are_outstanding(self):
        model, *_ = build_synthetic_system(400, 200, feature_dim=10, seed=3)
        scores = model.score_all()
        assert scores.nbytes > 64 * 1024  # larger than one pipe buffer
        service = ShardedService.build(model, num_shards=2, backend="process", n=6)
        try:
            handle = service.router.handles[0]
            for epoch in (1, 2, 3):
                handle.cast("update", _update(model, epoch))
            warmed = handle.call("warm", {"scores": scores}, timeout_s=20.0)
            assert warmed == handle.user_ids.size
            acks = handle.flush(timeout_s=10.0)
            assert [ack["applied_epochs"] for ack in acks] == [[1], [2], [3]]
        finally:
            service.close()

    def test_stop_never_blocks_on_a_stuck_worker(self, process_service):
        handle = process_service.router.handles[0]
        os.kill(handle._proc.pid, signal.SIGSTOP)
        started = time.monotonic()
        handle.stop(timeout_s=0.2)
        assert time.monotonic() - started < 5.0
        assert not handle.alive()

    def test_close_leaves_no_worker_behind(self, system):
        model, *_ = system
        service = ShardedService.build(model, num_shards=2, backend="process", n=6)
        assert len(_shard_children()) == 2
        service.close()
        assert _shard_children() == []


class TestMalformedInput:
    """A caller's mistake raises before dispatch; no shard fails over."""

    @pytest.fixture()
    def service(self, system):
        model, item_classes, class_names, counts = system
        service = ShardedService.build(
            model, num_shards=2, backend="local", fallback_counts=counts, n=6
        )
        yield service
        service.close()

    def test_bad_request_leaves_shards_healthy(self, service, system):
        model, *_ = system
        router = service.router
        for kwargs in (
            {"user": 0, "n": 0},
            {"user": 0, "n": 7},
            {"user": -1},
            {"user": model.num_users},
        ):
            with pytest.raises(ValueError):
                router.recommend(**kwargs)
        with pytest.raises(ValueError):
            router.recommend_batch([0, 1], n=7)
        with pytest.raises(ValueError):
            router.recommend_batch([0, model.num_users])
        assert router.healthy_shards() == [0, 1]
        assert router.failovers == 0 and router.fallback_requests == 0
        assert service.recommend(0, n=6).shape == (6,)

    def test_bad_push_leaves_shards_healthy(self, service, system):
        model, *_ = system
        router = service.router
        good = model.features[[0]]
        for item_ids, features in (
            ([model.num_items], good),
            ([0, 1], good),
            ([0], good[:, :3]),
            ([0], np.full_like(good, np.nan)),
            ([0], None),
        ):
            with pytest.raises(ValueError):
                router.push_item_features(item_ids, features)
        assert router.push_item_features([], np.zeros((0, model.feature_dim))) == 0
        assert router.epoch == 0
        assert router.healthy_shards() == [0, 1]

    def test_local_flush_returns_one_ack_per_shard(self, service, system):
        model, *_ = system
        for user in range(model.num_users):
            service.recommend(user)
        epoch = service.push_item_features([3], model.features[[3]] + 5.0)
        acks = service.flush()
        assert epoch == 1
        assert len(acks) == 2
        assert [ack["applied_epochs"] for ack in acks] == [[1], [1]]
        assert sum(ack["cached_users"] for ack in acks) == model.num_users
        assert service.flush() == []


# --------------------------------------------------------------------- #
# Warm-start slice (RecommenderService satellite)
# --------------------------------------------------------------------- #
class TestWarmStartSlice:
    def test_block_shaped_scores_prefill_only_the_slice(self, system):
        model, *_ = system
        full = model.score_all()
        user_ids = np.array([1, 5, 9, 33])

        sliced = RecommenderService(model, n=6)
        assert sliced.warm_start(full[user_ids], user_ids=user_ids) == 4
        reference = RecommenderService(model, n=6)
        reference.warm_start(full)
        for user in user_ids:
            np.testing.assert_array_equal(
                sliced.recommend(int(user)), reference.recommend(int(user))
            )
        stats = sliced.stats
        assert stats["hits"] == 4 and stats["misses"] == 0

    def test_shape_mismatch_is_rejected(self, system):
        model, *_ = system
        service = RecommenderService(model, n=6)
        with pytest.raises(ValueError, match="row-aligned"):
            service.warm_start(
                np.zeros((3, model.num_items)), user_ids=np.array([0, 1])
            )


class TestServiceFacade:
    def test_runs_one_local_shard_without_fallback(self, system):
        model, *_ = system
        service = RecommenderService(model, n=6)
        assert len(service.router.handles) == 1
        assert service.router.fallback is None
        service.router.handles[0].stop()
        with pytest.raises(ShardError, match="unhealthy"):
            service.recommend(0)


class TestLocalHandle:
    def test_local_handle_wraps_shard_errors(self, system):
        model, *_ = system
        shard = _local_shard(model, np.arange(0, model.num_users, 2))
        handle = LocalShardHandle(shard)
        with pytest.raises(ShardError, match="not owned"):
            handle.call("recommend", {"user": 1})  # odd user, even shard
        handle.stop()
        with pytest.raises(ShardError, match="stopped"):
            handle.call("stats")
