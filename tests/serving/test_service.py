"""Unit tests for the one-shard ShardedService facade and the CHR monitor."""

from collections import deque

import numpy as np
import pytest

from repro.core import TAaMRPipeline
from repro.data import tiny_dataset
from repro.features import ClassifierConfig, FeatureExtractor, train_catalog_classifier
from repro.recommenders import BPRMF, BPRMFConfig, VBPR, VBPRConfig
from repro.serving import RollingChrMonitor, ShardedService
from repro.serving.sharded import ShardError


@pytest.fixture(scope="module")
def pipeline():
    ds = tiny_dataset(seed=0, image_size=16)
    model, _ = train_catalog_classifier(
        ds.images,
        ds.item_categories,
        ds.num_categories,
        widths=(8,),
        blocks_per_stage=(1,),
        config=ClassifierConfig(epochs=6, batch_size=32, learning_rate=0.08, seed=0),
    )
    extractor = FeatureExtractor(model).fit(ds.images)
    features = extractor.transform(ds.images)
    vbpr = VBPR(ds.num_users, ds.num_items, features, VBPRConfig(epochs=5, seed=0)).fit(
        ds.feedback
    )
    return TAaMRPipeline(ds, extractor, vbpr, cutoff=10)


@pytest.fixture()
def service(pipeline):
    with ShardedService.from_pipeline(pipeline, n=10) as service:
        yield service


class TestRecommend:
    def test_matches_offline_top_n(self, pipeline, service):
        ds = pipeline.dataset
        expected = pipeline.recommender.top_n(
            10, feedback=ds.feedback, scores=pipeline.clean_scores
        )
        for user in (0, 3, 11, 39):
            np.testing.assert_array_equal(service.recommend(user), expected[user])

    def test_cached_second_request(self, service):
        first = service.recommend(5)
        second = service.recommend(5)
        np.testing.assert_array_equal(first, second)
        assert service.stats()["cache"]["hits"] == 1
        assert service.stats()["cache"]["misses"] == 1

    def test_prefix_for_smaller_n(self, service):
        full = service.recommend(2)
        np.testing.assert_array_equal(service.recommend(2, n=3), full[:3])

    def test_excludes_train_positives(self, pipeline, service):
        ds = pipeline.dataset
        for user in range(ds.num_users):
            served = set(service.recommend(user).tolist())
            assert not served & set(ds.feedback.train_items[user].tolist())

    def test_n_validation(self, service):
        with pytest.raises(ValueError):
            service.recommend(0, n=0)
        with pytest.raises(ValueError):
            service.recommend(0, n=service.router.n + 1)
        with pytest.raises(ValueError):
            service.recommend(-1)

    def test_recommend_batch(self, pipeline, service):
        block = service.recommend_batch([4, 7], n=5)
        assert block.shape == (2, 5)
        np.testing.assert_array_equal(block[0], service.recommend(4, n=5))

    def test_shard_failure_raises_without_fallback(self, service):
        # The builders pass no fallback_counts, so although the train
        # feedback is known, a failed shard raises instead of serving MostPop.
        assert service.router.fallback is None
        service.router.handles[0].stop()
        with pytest.raises(ShardError, match="unhealthy"):
            service.recommend(0)


class TestFeaturePush:
    def test_push_changes_scores_and_lists_consistently(self, pipeline, service):
        ds = pipeline.dataset
        users = list(range(ds.num_users))
        for user in users:
            service.recommend(user)

        rng = np.random.default_rng(3)
        item_ids = np.array([1, 17, 33])
        new_features = pipeline.clean_features[item_ids] + rng.normal(
            0, 5.0, (3, pipeline.clean_features.shape[1])
        )
        report = service.push_item_features(item_ids, new_features)
        assert report.scores_changed
        assert report.cached_users == ds.num_users

        shadow = pipeline.clean_features.copy()
        shadow[item_ids] = new_features
        expected = pipeline.recommender.top_n(
            10,
            feedback=ds.feedback,
            scores=pipeline.recommender.score_all(features=shadow),
        )
        for user in users:
            np.testing.assert_array_equal(service.recommend(user), expected[user])

    def test_push_attacked_images_roundtrip(self, pipeline):
        """Pushing the *clean* images must be a no-op on every served list."""
        service = ShardedService.from_pipeline(pipeline, n=10)
        ds = pipeline.dataset
        before = {user: service.recommend(user) for user in range(8)}
        item_ids = np.arange(5)
        report = service.push_attacked_images(item_ids, ds.images[item_ids])
        assert report.scores_changed  # extraction ran, scores recomputed
        for user, served in before.items():
            np.testing.assert_array_equal(service.recommend(user), served)

    def test_push_requires_extractor(self, pipeline):
        service = ShardedService.build(
            pipeline.recommender,
            1,
            backend="local",
            feedback=pipeline.dataset.feedback,
            features=pipeline.clean_features,
        )
        with pytest.raises(RuntimeError):
            service.push_attacked_images([0], pipeline.dataset.images[:1])

    def test_bprmf_service_is_attack_immune(self, pipeline):
        ds = pipeline.dataset
        model = BPRMF(ds.num_users, ds.num_items, BPRMFConfig(epochs=3, seed=0)).fit(
            ds.feedback
        )
        service = ShardedService.build(
            model, 1, backend="local", feedback=ds.feedback, n=10
        )
        before = service.recommend(2)
        report = service.push_item_features([0], np.ones((1, 7)))
        assert not report.scores_changed
        assert report.num_invalidated == 0
        np.testing.assert_array_equal(service.recommend(2), before)
        assert service.stats()["cache"]["hits"] == 1


class TestMonitor:
    def test_rolling_snapshot_sums_to_100(self, service):
        for user in range(20):
            service.recommend(user)
        stats = service.stats()
        assert sum(stats["chr"].values()) == pytest.approx(100.0)
        assert stats["chr_observed"] == 20

    def test_window_eviction(self):
        monitor = RollingChrMonitor(np.array([0, 1]), ["a", "b"], window=2)
        monitor.observe(np.array([0]))
        monitor.observe(np.array([0]))
        monitor.observe(np.array([1]))  # evicts the first
        assert monitor.chr_percent("a") == pytest.approx(50.0)
        assert monitor.chr_percent("b") == pytest.approx(50.0)

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_ring_buffer_matches_deque_window(self, window):
        # Oracle: per-list class counts in a deque, evicted from the left.
        rng = np.random.default_rng(window)
        item_classes = rng.integers(0, 4, size=50)
        names = ["a", "b", "c", "d"]
        monitor = RollingChrMonitor(item_classes, names, window=window)
        lists = deque()
        for step in range(5 * window + 3):  # several laps of the ring
            items = rng.choice(50, size=int(rng.integers(1, 9)), replace=False)
            monitor.observe(items)
            lists.append(np.bincount(item_classes[items], minlength=len(names)))
            if len(lists) > window:
                lists.popleft()
            counts = np.sum(lists, axis=0)
            slots = int(counts.sum())
            got_counts, got_slots = monitor.counts_snapshot()
            np.testing.assert_array_equal(got_counts, counts)
            assert got_slots == slots
            expected = {
                name: 100.0 * float(counts[idx]) / slots for idx, name in enumerate(names)
            }
            assert monitor.snapshot() == expected
            for name in names:
                assert monitor.chr_percent(name) == 100.0 * counts[names.index(name)] / slots
            assert monitor.observed == step + 1

    def test_empty_snapshot(self):
        monitor = RollingChrMonitor(np.array([0]), ["a"], window=4)
        assert monitor.snapshot() == {"a": 0.0}
        assert monitor.chr_percent("a") == 0.0

    def test_validation(self, pipeline):
        with pytest.raises(ValueError):
            RollingChrMonitor(np.array([0]), ["a"], window=0)
        with pytest.raises(ValueError):
            RollingChrMonitor(np.array([5]), ["a"], window=2)
        with pytest.raises(ValueError):
            ShardedService.build(
                pipeline.recommender,
                1,
                backend="local",
                features=pipeline.clean_features,
                item_classes=pipeline.item_classes,
                class_names=None,
            )


class TestUniverseValidation:
    def test_mismatched_feedback_rejected(self, pipeline):
        other = tiny_dataset(seed=1, image_size=16)
        model = BPRMF(3, 5, BPRMFConfig(epochs=1))
        with pytest.raises(ValueError):
            ShardedService.build(model, 1, backend="local", feedback=other.feedback)
