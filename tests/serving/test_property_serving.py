"""Property-style cache-correctness tests.

The serving layer's contract: after *any* interleaving of
``recommend`` and ``update_item_features`` calls, every served top-N
list equals a brute-force recompute from scratch — ``score_all`` over
the current feature state, seen-item masking, full argpartition — as
if no cache existed.  Seeded random interleavings exercise the
threshold bookkeeping (entries kept across irrelevant updates, dropped
exactly when a score change can cross the head boundary) on all three
recommenders of the paper; BPR-MF doubles as the attack-immune control
whose cache must *never* be invalidated by feature pushes.  Each case
runs on a local :class:`ShardedService` of 1, 2 and 4 shards.
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

N = 10
FEATURE_DIM = 12
SHARD_COUNTS = (1, 2, 4)


def shard_cases(*params):
    """Cross ``params`` with SHARD_COUNTS; one-shard ids carry no suffix."""
    cases, ids = [], []
    for num_shards in SHARD_COUNTS:
        for values in params:
            values = values if isinstance(values, tuple) else (values,)
            cases.append((num_shards, *values))
            suffix = "" if num_shards == 1 else f"-{num_shards}shards"
            ids.append("-".join(str(v) for v in values) + suffix)
    return {"argvalues": cases, "ids": ids}


def build_service(model, dataset, features, num_shards):
    return ShardedService.build(
        model,
        num_shards=num_shards,
        backend="local",
        feedback=dataset.feedback,
        features=features,
        n=N,
    )


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


def build_model(name, dataset, features):
    if name == "bprmf":
        return BPRMF(
            dataset.num_users, dataset.num_items, BPRMFConfig(epochs=4, seed=0)
        ).fit(dataset.feedback)
    if name == "vbpr":
        return VBPR(
            dataset.num_users,
            dataset.num_items,
            features,
            VBPRConfig(epochs=4, seed=0),
        ).fit(dataset.feedback)
    return AMR(
        dataset.num_users,
        dataset.num_items,
        features,
        AMRConfig(epochs=4, pretrain_epochs=2, seed=0),
    ).fit(dataset.feedback)


def brute_force_top_n(model, dataset, feature_state):
    """Offline ground truth: full matrix from the current features."""
    if feature_state is None:  # non-visual model
        scores = model.score_all()
    else:
        scores = model.score_all(features=feature_state)
    return model.top_n(N, feedback=dataset.feedback, scores=scores)


@pytest.mark.parametrize(
    "num_shards,trial_seed,model_name",
    **shard_cases(
        *[(seed, name) for seed in (0, 1, 2) for name in ("amr", "bprmf", "vbpr")]
    ),
)
def test_interleaved_serving_matches_brute_force(
    dataset, features, model_name, trial_seed, num_shards
):
    model = build_model(model_name, dataset, features)
    visual = model_name != "bprmf"
    service = build_service(
        model,
        dataset,
        np.array(features, copy=True) if visual else None,
        num_shards,
    )
    feature_state = np.array(features, copy=True) if visual else None
    truth = brute_force_top_n(model, dataset, feature_state)

    rng = np.random.default_rng(100 * trial_seed + 7)
    for step in range(120):
        if rng.random() < 0.25:
            # Push new features for a random item batch.
            count = int(rng.integers(1, 4))
            item_ids = rng.choice(dataset.num_items, size=count, replace=False)
            new_features = rng.normal(0, rng.uniform(0.3, 3.0), (count, FEATURE_DIM))
            service.push_item_features(item_ids, new_features)
            if visual:
                feature_state[item_ids] = new_features
                truth = brute_force_top_n(model, dataset, feature_state)
        else:
            user = int(rng.integers(0, dataset.num_users))
            served = service.recommend(user)
            np.testing.assert_array_equal(
                served,
                truth[user],
                err_msg=f"{model_name}: user {user} diverged at step {step}",
            )

    stats = service.stats()
    cache = stats["cache"]
    assert cache["hits"] + cache["misses"] > 0
    if visual:
        # The point of fine-grained invalidation: across ~30 update batches
        # some cached lists must survive untouched (hits after updates) and
        # some must be dropped.
        assert cache["invalidations"] > 0
    else:
        # Attack-immune control: feature pushes never invalidate BPR-MF.
        assert cache["invalidations"] == 0
        assert stats["feature_updates"] > 0


@pytest.mark.parametrize("num_shards,model_name", **shard_cases("vbpr"))
def test_cache_actually_serves_across_updates(
    dataset, features, model_name, num_shards
):
    """Guard against trivially-correct implementations that drop everything.

    With small, off-head feature perturbations the threshold rule must
    keep most entries alive, so replayed requests hit the cache even
    though updates keep arriving.
    """
    model = build_model(model_name, dataset, features)
    service = build_service(
        model, dataset, np.array(features, copy=True), num_shards
    )
    rng = np.random.default_rng(5)
    users = list(range(dataset.num_users))
    head_union = set()
    for user in users:
        head_union.update(service.recommend(user).tolist())
    off_head = [i for i in range(dataset.num_items) if i not in head_union]
    assert off_head, "need items outside every served head for this test"
    for item in off_head[:10]:
        # Tiny nudges: scores barely move and the item is in nobody's
        # head, so no entry may be invalidated.
        nudged = features[item] + rng.normal(0, 1e-6, FEATURE_DIM)
        service.push_item_features([item], nudged[None, :])
    for user in users:
        service.recommend(user)
    cache = service.stats()["cache"]
    assert cache["invalidations"] == 0
    assert cache["hits"] == len(users)
