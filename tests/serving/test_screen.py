"""Unit tests for the ingest-path feature screen and its quarantine
semantics on the one-shard service and the sharded router."""

import numpy as np
import pytest

from repro.defenses import ReconstructionDetector
from repro.rng import rng_from_seed
from repro.serving import (
    FeatureScreen,
    ScreenReport,
    ShardedService,
)
from repro.serving.sharded import build_synthetic_system


@pytest.fixture(scope="module")
def system():
    # build_synthetic_system makes the catalog features low-rank plus a
    # small noise floor, so off-manifold pushes are actually detectable.
    return build_synthetic_system(40, 30, feature_dim=16, seed=3)


@pytest.fixture(scope="module")
def screen(system):
    model, *_ = system
    return FeatureScreen.fit(model.features, num_components=4, target_fpr=0.05)


def _garbage(model, items, seed=11):
    rng = rng_from_seed(seed)
    return model.features[items] + rng.normal(0.0, 5.0, (len(items), model.feature_dim))


def _calm_items(screen, model, count=3):
    """Item ids whose clean features sit well under the threshold, so a
    clean re-push of them is deterministically not a false positive."""
    scores = screen.detector.score(model.features)
    return np.argsort(scores)[:count]


class TestFeatureScreen:
    def test_requires_fitted_and_calibrated_detector(self, system):
        model, *_ = system
        with pytest.raises(ValueError):
            FeatureScreen(ReconstructionDetector())
        uncalibrated = ReconstructionDetector(num_components=4).fit(model.features)
        with pytest.raises(ValueError):
            FeatureScreen(uncalibrated)

    def test_misaligned_push_rejected(self, screen, system):
        model, *_ = system
        with pytest.raises(ValueError):
            screen.screen([0, 1, 2], model.features[:2])

    def test_clean_push_mostly_passes(self, screen, system):
        model, *_ = system
        report = screen.screen(np.arange(model.num_items), model.features)
        # Calibrated at the 95% clean quantile: ~5% false positives.
        assert report.flag_rate <= 0.1
        assert report.num_passed + report.num_flagged == model.num_items

    def test_garbage_push_quarantined(self, screen, system):
        model, *_ = system
        items = np.array([2, 9, 17])
        report = screen.screen(items, _garbage(model, items))
        assert report.num_flagged == 3
        np.testing.assert_array_equal(report.quarantined_item_ids, items)
        assert report.passed_item_ids.size == 0
        assert (report.scores > report.threshold).all()

    def test_report_partitions_the_push(self, screen, system):
        model, *_ = system
        calm = _calm_items(screen, model, count=2)
        items = np.concatenate([calm, [5]])
        features = np.vstack([model.features[calm], _garbage(model, [5])])
        report = screen.screen(items, features)
        assert isinstance(report, ScreenReport)
        np.testing.assert_array_equal(report.passed_item_ids, calm)
        np.testing.assert_array_equal(report.quarantined_item_ids, [5])
        assert report.flag_rate == pytest.approx(1 / 3)


class TestServiceQuarantine:
    def _service(self, model, screen=None):
        return ShardedService.build(model, 1, backend="local", screen=screen, n=6)

    def test_quarantined_push_is_a_recorded_noop(self, system, screen):
        model, *_ = system
        service = self._service(model, screen)
        before = {user: service.recommend(user).copy() for user in range(10)}
        items = [2, 9, 17]
        report = service.push_item_features(items, _garbage(model, items))
        assert report.screened
        assert report.quarantined_items == items
        assert report.num_quarantined == 3
        assert report.item_ids.size == 0
        # Nothing reached the scorer: no rescore, no invalidation.
        assert not report.scores_changed
        assert report.num_invalidated == 0
        assert service.stats()["feature_updates"] == 0
        for user, served in before.items():
            np.testing.assert_array_equal(service.recommend(user), served)
        assert service.router.last_screen is not None
        assert service.router.last_screen.num_flagged == 3

    def test_partial_push_applies_only_passed_items(self, system, screen):
        model, *_ = system
        service = self._service(model, screen)
        twin = self._service(model)  # no screen: the reference system
        for user in range(model.num_users):
            service.recommend(user)
            twin.recommend(user)
        # Push on-manifold donor features (another calm item's row) so
        # the passed subset is deterministic, alongside one garbage row.
        calm = _calm_items(screen, model, count=6)
        targets, donors = calm[:3], calm[3:]
        items = np.concatenate([targets, [7]])
        features = np.vstack([model.features[donors], _garbage(model, [7])])
        report = service.push_item_features(items, features)
        np.testing.assert_array_equal(report.item_ids, targets)
        assert report.quarantined_items == [7]
        assert report.scores_changed
        # The defended service now serves exactly what an undefended
        # service pushed only the passed items would serve.
        twin.push_item_features(targets, model.features[donors])
        for user in range(model.num_users):
            np.testing.assert_array_equal(
                service.recommend(user), twin.recommend(user)
            )

    def test_clean_push_passes_screen(self, system, screen):
        model, *_ = system
        service = self._service(model, screen)
        calm = _calm_items(screen, model)
        report = service.push_item_features(calm, model.features[calm])
        assert report.screened
        assert report.quarantined_items == []
        np.testing.assert_array_equal(report.item_ids, calm)

    def test_disabled_screen_keeps_push_path_unchanged(self, system):
        model, *_ = system
        service = self._service(model)
        items = [2, 9]
        report = service.push_item_features(items, _garbage(model, items))
        assert not report.screened
        assert report.quarantined_items == []
        assert report.scores_changed
        assert service.router.last_screen is None


class TestRouterQuarantine:
    @pytest.fixture()
    def service(self, system, screen):
        model, *_ = system
        service = ShardedService.build(
            model, num_shards=2, backend="local", screen=screen, n=6
        )
        yield service
        service.close()

    def test_fully_quarantined_push_spends_no_epoch(self, service, system):
        model, *_ = system
        before = {user: service.recommend(user).copy() for user in range(10)}
        epoch = service.router.epoch
        items = np.array([2, 9, 17])
        returned = service.router.push_item_features(items, _garbage(model, items))
        assert returned == epoch
        assert service.router.epoch == epoch
        verdict = service.router.last_screen
        assert verdict is not None and verdict.num_flagged == 3
        service.flush()
        for user, served in before.items():
            np.testing.assert_array_equal(service.recommend(user), served)

    def test_passed_items_fan_out_normally(self, service, system, screen):
        model, *_ = system
        epoch = service.router.epoch
        calm = _calm_items(screen, model, count=6)
        targets, donors = calm[:3], calm[3:]
        items = np.concatenate([targets, [7]])
        features = np.vstack([model.features[donors], _garbage(model, [7])])
        returned = service.router.push_item_features(items, features)
        assert returned == epoch + 1
        service.flush()
        verdict = service.router.last_screen
        np.testing.assert_array_equal(verdict.quarantined_item_ids, [7])
        # The quarantined item's features never left the router: shards
        # serve lists identical to a screenless push of the passed set.
        twin = ShardedService.build(model, num_shards=2, backend="local", n=6)
        try:
            twin.push_item_features(targets, model.features[donors])
            for user in range(model.num_users):
                np.testing.assert_array_equal(
                    service.recommend(user), twin.recommend(user)
                )
        finally:
            twin.close()
