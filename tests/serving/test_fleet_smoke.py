"""Two-worker fleet smoke: real worker processes over shared memory.

One small end-to-end life of a ``backend="process"`` fleet, run with
and without the runtime race sentinel: serve a cold fill and three
passes of a Zipf stream around an attack push and a screened replay of
it, then tear down.  Checks what a unit test cannot: every request is
served by its owning worker, the push invalidates cached lists, the
pushes refill the lists they invalidate (only the cold pass misses),
the router-side screen quarantines the noisy attack features, and
teardown leaves no worker process and no shared-memory segment behind.
CI runs this module with ``REPRO_RACE_CHECK=1`` as well.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.rng import derive_rng
from repro.serving import FeatureScreen, ShardedService
from repro.serving.loadgen import ZipfLoadGenerator
from repro.serving.sharded import ShardError, segment_exists
from repro.serving.sharded.driver import build_synthetic_system

USERS = 2000
ITEMS = 300
FEATURE_DIM = 32
REQUESTS = 1200
ZIPF = 0.9
ATTACKED_ITEMS = 16
ATTACK_NOISE = 0.25
TOP_N = 20
WORKERS = 2
SEED = 0


def _shard_children():
    return [p for p in mp.active_children() if p.name.startswith("repro-shard-")]


@pytest.fixture(scope="module")
def system():
    return build_synthetic_system(USERS, ITEMS, feature_dim=FEATURE_DIM, seed=SEED)


def _build(system, race_check):
    model, item_classes, class_names, counts = system
    return ShardedService.build(
        model,
        num_shards=WORKERS,
        backend="process",
        item_classes=item_classes,
        class_names=class_names,
        fallback_counts=counts,
        n=TOP_N,
        race_check=race_check,
    )


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "race"])
def life(request, system):
    """Drive one fleet through its life; return what each step reported."""
    model = system[0]
    stream = ZipfLoadGenerator(
        USERS, exponent=ZIPF, seed=SEED, stream="sharded.loadgen"
    ).sample(REQUESTS)
    _, first_seen = np.unique(stream, return_index=True)
    cold_users = stream[np.sort(first_seen)]
    attack_rng = derive_rng(SEED, "sharded.attack")
    attacked = np.sort(attack_rng.choice(ITEMS, size=ATTACKED_ITEMS, replace=False))
    attacked_features = model.features[attacked] + attack_rng.normal(
        0.0, ATTACK_NOISE, (attacked.size, FEATURE_DIM)
    )
    screen = FeatureScreen.fit(model.features, num_components=8, target_fpr=0.05)

    service = _build(system, request.param)
    segment = service.segment_name
    try:
        served = {}

        def serve(phase, users):
            served[phase] = [service.recommend(int(user)) for user in users]

        serve("cold", cold_users)
        serve("warm_cache", stream)
        invalidated = service.push_item_features(
            attacked, attacked_features
        ).num_invalidated
        serve("post_invalidation", stream)
        service.router.screen = screen
        service.push_item_features(attacked, attacked_features)
        verdict = service.router.last_screen
        serve("defended", stream)
        stats = service.stats()
    finally:
        service.close()
    return {
        "requests": np.concatenate([cold_users, stream, stream, stream]),
        "cold_users": cold_users,
        "served": served,
        "invalidated": invalidated,
        "verdict": verdict,
        "stats": stats,
        "segment": segment,
        "children": _shard_children(),
    }


class TestFleetSmoke:
    def test_every_request_served(self, life):
        for phase, lists in life["served"].items():
            assert lists, phase
            for top in lists:
                assert len(top) == TOP_N and len(np.unique(top)) == TOP_N, phase
        assert life["stats"]["fallback_requests"] == 0

    def test_each_shard_served_the_requests_it_owns(self, life):
        per_shard = life["stats"]["per_shard"]
        assert len(per_shard) == WORKERS
        owned = np.bincount(life["requests"] % WORKERS, minlength=WORKERS)
        lookups = [s["cache"]["hits"] + s["cache"]["misses"] for s in per_shard]
        assert lookups == owned.tolist()
        assert sum(lookups) == life["requests"].size

    def test_push_invalidates_cached_lists(self, life):
        assert life["invalidated"] > 0

    def test_pushes_refill_what_they_invalidate(self, life):
        # Only the cold pass misses: each push refills the lists it drops,
        # so the passes after it are served from the cache.
        cold = np.bincount(life["cold_users"] % WORKERS, minlength=WORKERS)
        misses = [s["cache"]["misses"] for s in life["stats"]["per_shard"]]
        assert misses == cold.tolist()

    def test_screen_quarantines_the_replayed_push(self, life):
        verdict = life["verdict"]
        assert verdict is not None
        assert verdict.item_ids.size == ATTACKED_ITEMS > 0
        # The synthetic catalog is low-rank by construction, so the noisy
        # attack features must be quarantined at a high rate.
        assert verdict.flag_rate >= 0.5

    def test_all_shards_healthy(self, life):
        assert life["stats"]["healthy_shards"] == WORKERS

    def test_close_reclaims_workers_and_segment(self, life):
        assert life["segment"] is not None
        assert not segment_exists(life["segment"])
        assert life["children"] == []


def _corrupt_router_mapping(service, key="item_bias"):
    # Bypass the read-only flag the way a buggy native kernel could: a
    # fresh view over the router's own (writable) mapping of the segment.
    # The view dies with this frame, so the segment can still be closed.
    view = service._bundle.bank()[key].view()
    view.flags.writeable = True
    view.flat[0] += 1.0


def test_race_sentinel_fails_the_next_worker_op(system):
    # A write to the router's mapping of the published segment is a write
    # every worker sees: under race mode the next op on a shard must fail
    # with the sentinel's error instead of serving from the changed bank.
    service = _build(system, race_check=True)
    try:
        handle = service.router.handles[0]
        handle.call("ping")
        _corrupt_router_mapping(service)
        with pytest.raises(ShardError) as excinfo:
            handle.call("ping")
        assert excinfo.value.kind == "ShmRaceError"
    finally:
        service.close()
    assert _shard_children() == []
