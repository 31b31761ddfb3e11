"""Sharded-vs-single-process equivalence, bit for bit.

The sharded tier's contract: a :class:`ShardedService` over 1, 2 or 4
shards returns **bitwise-identical** recommendations to a one-shard
in-process :class:`ShardedService` on the same model, under arbitrary
interleavings of ``recommend`` and ``push_item_features`` — the shards
score against the published shared item side with the same float64
expressions in the same order, so there is no tolerance here, only
``assert_array_equal``.  Runs on all three recommenders of the paper
(BPR-MF as the attack-immune control) and on both backends: ``local``
(in-process shards, the fast path for the property sweep) and
``process`` (real workers + shared memory + pipe transport).
"""

import numpy as np
import pytest

from repro.data import tiny_dataset
from repro.recommenders import (
    AMR,
    AMRConfig,
    BPRMF,
    BPRMFConfig,
    VBPR,
    VBPRConfig,
)
from repro.serving import ShardedService
from repro.serving.sharded import segment_exists

N = 10
FEATURE_DIM = 12


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
def models(dataset, features):
    return {
        "bprmf": BPRMF(
            dataset.num_users, dataset.num_items, BPRMFConfig(epochs=4, seed=0)
        ).fit(dataset.feedback),
        "vbpr": VBPR(
            dataset.num_users,
            dataset.num_items,
            features,
            VBPRConfig(epochs=4, seed=0),
        ).fit(dataset.feedback),
        "amr": AMR(
            dataset.num_users,
            dataset.num_items,
            features,
            AMRConfig(epochs=4, pretrain_epochs=2, seed=0),
        ).fit(dataset.feedback),
    }


def _build_pair(model_name, models, dataset, features, num_shards, backend):
    model = models[model_name]
    visual = model_name != "bprmf"
    feats = np.array(features, copy=True) if visual else None
    single = ShardedService.build(
        model, 1, backend="local", feedback=dataset.feedback, features=feats, n=N
    )
    sharded = ShardedService.build(
        model,
        num_shards=num_shards,
        backend=backend,
        feedback=dataset.feedback,
        features=np.array(features, copy=True) if visual else None,
        n=N,
    )
    return single, sharded, visual


def _random_interleaving(
    single, sharded, dataset, visual, trial_seed, steps=120
):
    rng = np.random.default_rng(1000 * trial_seed + 13)
    for step in range(steps):
        if rng.random() < 0.25:
            count = int(rng.integers(1, 4))
            item_ids = rng.choice(dataset.num_items, size=count, replace=False)
            new_features = rng.normal(
                0, rng.uniform(0.3, 3.0), (count, FEATURE_DIM)
            )
            single.push_item_features(item_ids, new_features)
            sharded.push_item_features(item_ids, new_features)
        else:
            user = int(rng.integers(0, dataset.num_users))
            np.testing.assert_array_equal(
                sharded.recommend(user),
                single.recommend(user),
                err_msg=f"user {user} diverged at step {step} "
                f"({len(sharded.router.handles)} shards)",
            )
    # Sweep every user once more so no shard escapes scrutiny.
    for user in range(dataset.num_users):
        np.testing.assert_array_equal(
            sharded.recommend(user), single.recommend(user)
        )


@pytest.mark.parametrize("model_name", ["bprmf", "vbpr", "amr"])
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_sharded_matches_single_process(
    models, dataset, features, model_name, num_shards
):
    single, sharded, visual = _build_pair(
        model_name, models, dataset, features, num_shards, backend="local"
    )
    try:
        _random_interleaving(single, sharded, dataset, visual, trial_seed=num_shards)
        aggregate = sharded.stats()
        expected = single.stats()["cache"]
        # The fleet's summed cache counters must equal the single cache's:
        # same requests, same invalidation decisions, just partitioned.
        for key in ("hits", "misses", "puts", "invalidations"):
            assert aggregate["cache"][key] == expected[key], key
        if model_name == "bprmf":
            assert aggregate["cache"]["invalidations"] == 0
    finally:
        sharded.close()


@pytest.mark.parametrize("num_shards", [2])
def test_sharded_matches_single_process_over_processes(
    models, dataset, features, num_shards
):
    """Same property through real worker processes and shared memory."""
    single, sharded, visual = _build_pair(
        "vbpr", models, dataset, features, num_shards, backend="process"
    )
    segment = sharded.segment_name
    assert segment is not None and segment_exists(segment)
    try:
        _random_interleaving(
            single, sharded, dataset, visual, trial_seed=9, steps=60
        )
    finally:
        sharded.close()
    assert not segment_exists(segment), "worker teardown leaked the segment"


def test_warm_started_shards_match_single_process(models, dataset, features):
    """Warm entries must be indistinguishable from computed entries."""
    model = models["vbpr"]
    scores = model.score_all(features=features)
    single = ShardedService.build(
        model,
        1,
        backend="local",
        feedback=dataset.feedback,
        features=np.array(features, copy=True),
        n=N,
    )
    single.warm_start(scores)
    sharded = ShardedService.build(
        model,
        num_shards=3,
        backend="local",
        feedback=dataset.feedback,
        features=np.array(features, copy=True),
        n=N,
    )
    try:
        assert sharded.warm_start(scores) == dataset.num_users
        for user in range(dataset.num_users):
            np.testing.assert_array_equal(
                sharded.recommend(user), single.recommend(user)
            )
        # Every request above must have been served from the warm cache.
        assert sharded.stats()["cache"]["misses"] == 0
    finally:
        sharded.close()
