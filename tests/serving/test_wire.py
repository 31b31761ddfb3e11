"""The shard wire: one pickled message per send, the replies of the shard.

Every ``_dispatch`` op answers the same through a worker's pipes as
through :class:`LocalShardHandle`, which runs the identical shard
in-process; a served list reaches the caller as a fresh, writeable
int64 array on either backend; a worker-side exception keeps its kind
across the pipe; and a payload that cannot pickle fails in the caller
before a byte reaches the worker.
"""

import pickle

import numpy as np
import pytest

from repro.serving import ShardedService
from repro.serving.sharded import SharedArrayBundle, build_synthetic_system
from repro.serving.sharded.worker import ShardError

BACKENDS = ("local", "process")


@pytest.fixture(scope="module")
def system():
    return build_synthetic_system(60, 40, feature_dim=8, seed=11)


@pytest.fixture()
def services(system):
    model, item_classes, class_names, counts = system
    built = {}
    try:
        for backend in BACKENDS:
            built[backend] = ShardedService.build(
                model,
                num_shards=2,
                backend=backend,
                item_classes=item_classes,
                class_names=class_names,
                fallback_counts=counts,
                n=6,
            )
        yield built
    finally:
        for service in built.values():
            service.close()


def _assert_same(local, process, where):
    """Equal values of equal types, arrays by dtype, shape and content."""
    assert type(local) is type(process), where
    if isinstance(local, np.ndarray):
        assert local.dtype == process.dtype and local.shape == process.shape, where
        np.testing.assert_array_equal(local, process, err_msg=where)
    elif isinstance(local, dict):
        assert local.keys() == process.keys(), where
        for key in local:
            _assert_same(local[key], process[key], f"{where}[{key!r}]")
    elif isinstance(local, (list, tuple)):
        assert len(local) == len(process), where
        for index, (a, b) in enumerate(zip(local, process)):
            _assert_same(a, b, f"{where}[{index}]")
    else:
        assert local == process, where


def _every_op(service, model):
    """One call of every ``_dispatch`` op on shard 0: ``[(label, reply)]``."""
    handle = service.router.handles[0]
    users = handle.user_ids
    scores = model.score_all()
    items = np.array([2, 5])
    replies = [
        ("ping", handle.call("ping")),
        ("recommend (cold)", handle.call("recommend", {"user": int(users[0]), "n": 4})),
        ("recommend_many", handle.call("recommend_many", {"users": users[:5], "n": 6})),
        ("warm (raw scores)", handle.call("warm", {"scores": scores})),
    ]
    bundle = SharedArrayBundle({"scores": scores})
    try:
        manifest = {"manifest": bundle.manifest, "key": "scores"}
        replies.append(("warm (shm manifest)", handle.call("warm", manifest)))
    finally:
        bundle.release()
    update = {
        "epoch": 1,
        "item_ids": items,
        "item_features": model.features[items] + 0.5,
    }
    replies += [
        ("recommend (warm)", handle.call("recommend", {"user": int(users[1])})),
        ("update", handle.call("update", update)),
        ("recommend (after update)", handle.call("recommend", {"user": int(users[2])})),
        ("recommend_many (after update)", handle.call("recommend_many", {"users": users})),
        ("stats", handle.call("stats")),
    ]
    return replies


def test_every_op_answers_alike_on_both_backends(services, system):
    model, *_ = system
    local = _every_op(services["local"], model)
    process = _every_op(services["process"], model)
    assert [label for label, _ in local] == [label for label, _ in process]
    for (label, a), (_, b) in zip(local, process):
        _assert_same(a, b, label)


def test_recommend_is_a_fresh_writeable_int64_array(services, system):
    model, *_ = system
    for user in range(model.num_users):
        served = {backend: services[backend].recommend(user) for backend in BACKENDS}
        for backend, array in served.items():
            assert isinstance(array, np.ndarray), backend
            assert array.dtype == np.int64 and array.shape == (6,), backend
            assert array.flags.writeable and array.flags.owndata, backend
        np.testing.assert_array_equal(served["local"], served["process"])
    # Writing into a served list leaves the shard's cached list alone.
    for backend in BACKENDS:
        served = services[backend].recommend(0)
        expected = served.copy()
        served[:] = -1
        np.testing.assert_array_equal(services[backend].recommend(0), expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_exception_keeps_its_kind(services, backend):
    handle = services[backend].router.handles[0]
    with pytest.raises(ShardError, match="not owned") as caught:
        handle.call("recommend", {"user": 1})  # odd user, even shard
    assert caught.value.kind == "ValueError"
    assert caught.value.op == "recommend" and caught.value.shard_id == 0
    with pytest.raises(ShardError, match="unknown shard op") as caught:
        handle.call("bogus")
    assert caught.value.kind == "ValueError"
    assert handle.call("ping")["shard_id"] == 0  # the wire is still in step
    assert services[backend].router.healthy_shards() == [0, 1]


def test_unpicklable_payload_fails_before_the_write(services):
    handle = services["process"].router.handles[0]
    seq = handle._seq
    unpicklable = {"user": 0, "n": lambda: 6}
    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        pickle.dumps(unpicklable, pickle.HIGHEST_PROTOCOL)
    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        handle.call("recommend", unpicklable)
    # No ticket was spent and nothing reached the worker: the next
    # request gets the next sequence number and its own reply.
    assert handle._seq == seq and not handle._outstanding
    assert handle.call("ping")["shard_id"] == 0
    assert handle._seq == seq + 1
    assert handle.call("stats")["cache"]["misses"] == 0
