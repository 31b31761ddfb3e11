"""Tests for the batched ε-ladder engine (``repro.attacks.ladder``).

The exact mode is pinned against the unbatched per-cell attacks as a
bitwise oracle; the warm mode is held to tolerance (constraints exact,
statistics close).  Uses the same module-scoped trained classifier as
``test_attacks.py``.
"""

import numpy as np
import pytest

from repro.attacks import (
    FGSM,
    MIM,
    PGD,
    EpsilonLadder,
    epsilon_from_255,
    per_image_unit_noise,
)
from repro.attacks import base as attack_base
from repro.data import amazon_men_like
from repro.features import ClassifierConfig, train_catalog_classifier
from repro.telemetry import telemetry_session

EPSILONS = tuple(epsilon_from_255(e) for e in (2.0, 4.0, 8.0, 16.0))


@pytest.fixture(scope="module")
def setup():
    ds = amazon_men_like(scale=0.0025, image_size=24, seed=1)
    model, report = train_catalog_classifier(
        ds.images,
        ds.item_categories,
        ds.num_categories,
        widths=(8, 16),
        blocks_per_stage=(1, 1),
        config=ClassifierConfig(epochs=20, batch_size=32, learning_rate=0.08, seed=0),
    )
    assert report.final_train_accuracy > 0.9
    socks = ds.items_in_category("sock")
    # jersey_tshirt is reliably reachable from socks on this tiny model
    # (PGD ε=16/255 succeeds on the whole cohort), so the warm-mode
    # early-exit machinery actually engages in the tests below.
    target = ds.registry.by_name("jersey_tshirt").category_id
    return ds, model, ds.images[socks][:10], target


class TestExactEquivalence:
    """Exact mode must be bitwise identical to the per-cell oracle."""

    def test_fgsm_matches_oracle_per_rung(self, setup):
        _, model, images, target = setup
        ladder = EpsilonLadder(model, attack="FGSM", epsilons=EPSILONS, mode="exact")
        cells = ladder.run(images, target)
        assert [c.epsilon for c in cells] == list(EPSILONS)
        for eps, cell in zip(EPSILONS, cells):
            oracle = FGSM(model, eps).attack(images, target_class=target)
            assert np.array_equal(cell.result.adversarial_images, oracle.adversarial_images)
            assert np.array_equal(
                cell.result.adversarial_predictions, oracle.adversarial_predictions
            )
            assert np.array_equal(
                cell.result.original_predictions, oracle.original_predictions
            )

    def test_pgd_matches_oracle_per_rung(self, setup):
        _, model, images, target = setup
        ladder = EpsilonLadder(
            model, attack="PGD", epsilons=EPSILONS, mode="exact", num_steps=5, seed=3
        )
        cells = ladder.run(images, target)
        for eps, cell in zip(EPSILONS, cells):
            oracle = PGD(model, eps, num_steps=5, seed=3).attack(
                images, target_class=target
            )
            assert np.array_equal(cell.result.adversarial_images, oracle.adversarial_images)
            assert np.array_equal(
                cell.result.adversarial_predictions, oracle.adversarial_predictions
            )

    def test_pgd_exact_respects_oracle_chunk_grid(self, setup):
        """Gradients are chunk-dependent: a batch_size-3 ladder must equal
        a batch_size-3 oracle bitwise, including the ragged final chunk."""
        _, model, images, target = setup
        ladder = EpsilonLadder(
            model,
            attack="PGD",
            epsilons=EPSILONS[:2],
            mode="exact",
            num_steps=4,
            batch_size=3,
        )
        cells = ladder.run(images, target)
        for eps, cell in zip(EPSILONS[:2], cells):
            oracle = PGD(model, eps, num_steps=4, batch_size=3).attack(
                images, target_class=target
            )
            assert np.array_equal(cell.result.adversarial_images, oracle.adversarial_images)

    def test_ladder_features_match_extract_features(self, setup):
        _, model, images, target = setup
        ladder = EpsilonLadder(
            model, attack="PGD", epsilons=EPSILONS[:2], mode="exact", num_steps=3
        )
        for cell in ladder.run(images, target):
            recomputed = model.extract_features(cell.result.adversarial_images)
            assert np.array_equal(cell.raw_features, recomputed)

    def test_zero_epsilon_rung_matches_oracle(self, setup):
        _, model, images, target = setup
        ladder = EpsilonLadder(
            model, attack="PGD", epsilons=(0.0, EPSILONS[0]), mode="exact", num_steps=3
        )
        cells = ladder.run(images, target)
        oracle = PGD(model, 0.0, num_steps=3).attack(images, target_class=target)
        assert np.array_equal(cells[0].result.adversarial_images, oracle.adversarial_images)


class TestMIMExact:
    """MIM's exact ladder equals per-cell MIM bitwise, rung by rung."""

    @pytest.mark.parametrize("decay", [0.0, 1.0])
    @pytest.mark.parametrize("step_size", [None, 0.01])
    def test_matches_oracle_per_rung(self, setup, decay, step_size):
        # batch_size 4 < 10 images: the shared first gradient and every
        # later step must run on the oracle's chunk grid, ragged tail too.
        _, model, images, target = setup
        epsilons = (0.0,) + EPSILONS[1:]
        kwargs = dict(num_steps=3, decay=decay, step_size=step_size, batch_size=4)
        cells = EpsilonLadder(
            model, attack="MIM", epsilons=epsilons, mode="exact", **kwargs
        ).run(images, target)
        assert [c.epsilon for c in cells] == list(epsilons)
        for eps, cell in zip(epsilons, cells):
            oracle = MIM(model, eps, **kwargs).attack(images, target_class=target)
            assert np.array_equal(cell.result.adversarial_images, oracle.adversarial_images)
            assert np.array_equal(
                cell.result.adversarial_predictions, oracle.adversarial_predictions
            )
            assert np.array_equal(
                cell.raw_features, model.extract_features(oracle.adversarial_images)
            )

    def test_shared_first_gradient_accounting(self, setup):
        """The step-0 gradient is split over the attacked rungs the way
        FGSM's is: n/R each, so the rungs sum to n·(1 + R·(S−1))."""
        _, model, images, target = setup
        n, steps = images.shape[0], 3
        epsilons = (0.0,) + EPSILONS  # R = 4 attacked rungs plus ε = 0
        cells = EpsilonLadder(
            model, attack="MIM", epsilons=epsilons, mode="exact", num_steps=steps
        ).run(images, target)
        zero, attacked = cells[0], cells[1:]
        assert zero.result.metadata["backwards"] == 0
        assert zero.result.metadata["forwards"] == n
        for cell in attacked:
            meta = cell.result.metadata
            assert meta["iterations"] == steps
            assert meta["backwards"] == n / 4 + n * (steps - 1)
            assert meta["forwards"] == meta["backwards"] + n
        total = sum(c.result.metadata["backwards"] for c in cells)
        assert total == n * (1 + 4 * (steps - 1))

    def test_savings_counters_match_hand_counts(self, setup):
        _, model, images, target = setup
        n, steps = images.shape[0], 3
        epsilons = (0.0,) + EPSILONS
        with telemetry_session(metrics=True) as session:
            EpsilonLadder(
                model, attack="MIM", epsilons=epsilons, mode="exact", num_steps=steps
            ).run(images, target, original_predictions=model.predict(images))
        snapshot = session.metrics.snapshot()
        # Per cell the oracle runs S gradient passes (none at ε = 0), one
        # predict and one re-extraction: 5 cells, 4 of them attacked.
        baseline_forwards = 4 * n * (steps + 2) + 2 * n
        baseline_backwards = 4 * n * steps
        # The ladder: one shared gradient, S−1 per attacked rung, and one
        # merged predict-with-features per cell.
        ladder_backwards = n + 4 * n * (steps - 1)
        ladder_forwards = ladder_backwards + 5 * n
        assert (
            snapshot["attack_ladder.forwards_saved"]["value"]
            == baseline_forwards - ladder_forwards
        )
        assert (
            snapshot["attack_ladder.backwards_saved"]["value"]
            == baseline_backwards - ladder_backwards
        )


class TestMIMWarm:
    def test_constraints_hold_exactly(self, setup):
        _, model, images, target = setup
        ladder = EpsilonLadder(
            model, attack="MIM", epsilons=EPSILONS, mode="warm", num_steps=5
        )
        for eps, cell in zip(EPSILONS, ladder.run(images, target)):
            adv = cell.result.adversarial_images
            assert adv.min() >= 0.0 and adv.max() <= 1.0
            # float32 slack as in the per-cell tests.
            assert np.abs(adv - images).max() <= eps + 1e-6

    def test_success_tracks_exact_mode(self, setup):
        _, model, images, target = setup
        kwargs = dict(attack="MIM", epsilons=EPSILONS, num_steps=10)
        exact = EpsilonLadder(model, mode="exact", **kwargs).run(images, target)
        warm = EpsilonLadder(model, mode="warm", **kwargs).run(images, target)
        for e_cell, w_cell in zip(exact, warm):
            e_rate = (e_cell.result.adversarial_predictions == target).mean()
            w_rate = (w_cell.result.adversarial_predictions == target).mean()
            assert abs(e_rate - w_rate) <= 0.2

    def test_first_rung_without_exits_equals_exact(self, setup):
        """Rung one starts at the clean image with zero velocity, as exact
        mode does: with no early exit (and one gradient chunk) the two
        modes take the same steps."""
        _, model, images, target = setup
        kwargs = dict(attack="MIM", epsilons=EPSILONS[:1], num_steps=3, batch_size=64)
        exact = EpsilonLadder(model, mode="exact", **kwargs).run(images, target)[0]
        warm = EpsilonLadder(model, mode="warm", **kwargs).run(images, target)[0]
        assert warm.result.metadata["warm_started"] is False
        assert warm.result.metadata["early_exited"] == 0
        assert np.array_equal(
            warm.result.adversarial_images, exact.result.adversarial_images
        )

    def test_early_exits_engage(self, setup):
        _, model, images, target = setup
        cells = EpsilonLadder(
            model, attack="MIM", epsilons=EPSILONS, mode="warm", num_steps=10
        ).run(images, target)
        assert cells[1].result.metadata["warm_started"] is True
        exited = sum(cell.result.metadata["early_exited"] for cell in cells)
        assert exited > 0
        for cell in cells:
            steps = np.asarray(cell.result.metadata["early_exit_steps"])
            if (steps >= 0).any():
                fresh = model.predict(cell.result.adversarial_images[steps >= 0])
                assert (fresh == target).all()


class TestModelStateRestored:
    """The ladder sets eval mode and freezes parameters once per run and
    restores both on exit, also when the run raises."""

    @staticmethod
    def _state(model):
        modes = [module.training for module in model.modules()]
        flags = [parameter.requires_grad for parameter in model.parameters()]
        return modes, flags

    @pytest.fixture
    def train_mode_model(self, setup):
        _, model, _, _ = setup
        was_training = model.training
        model.train()
        # One parameter frozen by the caller must stay frozen.
        first = next(iter(model.parameters()))
        first.requires_grad = False
        yield model
        first.requires_grad = True
        if not was_training:
            model.eval()

    @pytest.mark.parametrize("attack", ["FGSM", "PGD", "MIM"])
    def test_train_mode_and_requires_grad_restored(self, setup, train_mode_model, attack):
        _, _, images, target = setup
        model = train_mode_model
        before = self._state(model)
        assert all(before[0])
        EpsilonLadder(
            model, attack=attack, epsilons=EPSILONS[:2], num_steps=2
        ).run(images, target)
        assert self._state(model) == before

    def test_state_restored_when_the_run_raises(self, setup, train_mode_model, monkeypatch):
        _, _, images, target = setup
        model = train_mode_model
        before = self._state(model)
        seen = []

        def boom(ladder, *args):
            seen.append(self._state(model))
            raise RuntimeError("boom")

        monkeypatch.setattr(EpsilonLadder, "_run_iterative_exact", boom)
        with pytest.raises(RuntimeError, match="boom"):
            EpsilonLadder(model, attack="MIM", epsilons=EPSILONS[:1]).run(images, target)
        modes, flags = seen[0]
        assert not any(modes) and not any(flags)
        assert self._state(model) == before

    def test_freezes_once_per_run(self, setup, monkeypatch):
        _, model, images, target = setup
        entered = []
        real = attack_base.frozen_parameters

        def counting(module):
            entered.append(module)
            return real(module)

        monkeypatch.setattr(attack_base, "frozen_parameters", counting)
        EpsilonLadder(
            model, attack="MIM", epsilons=EPSILONS, num_steps=3, batch_size=4
        ).run(images, target)
        assert entered == [model]


class TestBatchSplitInvariance:
    """PGD random starts derive from (seed, image index), so splitting the
    cohort across mini-batches must not change any output (satellite)."""

    def test_pgd_attack_is_batch_split_invariant(self, setup):
        _, model, images, target = setup
        whole = PGD(model, EPSILONS[1], num_steps=4, seed=7, batch_size=64).attack(
            images, target_class=target
        )
        split = PGD(model, EPSILONS[1], num_steps=4, seed=7, batch_size=3).attack(
            images, target_class=target
        )
        # Chunked *gradients* differ; chunked random starts must not.
        start_whole = images + np.clip(
            whole.adversarial_images - images, -EPSILONS[1], EPSILONS[1]
        )
        assert start_whole.shape == split.adversarial_images.shape
        noise_a = per_image_unit_noise(images.shape, seed=7)
        noise_b0 = per_image_unit_noise(images[:3].shape, seed=7, start_index=0)
        noise_b1 = per_image_unit_noise(images[3:].shape, seed=7, start_index=3)
        assert np.array_equal(noise_a, np.concatenate([noise_b0, noise_b1]))

    def test_pgd_start_depends_on_seed(self, setup):
        _, model, images, target = setup
        a = PGD(model, EPSILONS[1], num_steps=1, seed=0).attack(images, target_class=target)
        b = PGD(model, EPSILONS[1], num_steps=1, seed=1).attack(images, target_class=target)
        assert not np.array_equal(a.adversarial_images, b.adversarial_images)


class TestWarmMode:
    def test_constraints_hold_exactly(self, setup):
        _, model, images, target = setup
        ladder = EpsilonLadder(
            model, attack="PGD", epsilons=EPSILONS, mode="warm", num_steps=5
        )
        for eps, cell in zip(EPSILONS, ladder.run(images, target)):
            adv = cell.result.adversarial_images
            assert adv.min() >= 0.0 and adv.max() <= 1.0
            # float32 slack as in the per-cell tests.
            assert np.abs(adv - images).max() <= eps + 1e-6

    def test_success_tracks_exact_mode(self, setup):
        _, model, images, target = setup
        kwargs = dict(attack="PGD", epsilons=EPSILONS, num_steps=10)
        exact = EpsilonLadder(model, mode="exact", **kwargs).run(images, target)
        warm = EpsilonLadder(model, mode="warm", **kwargs).run(images, target)
        for e_cell, w_cell in zip(exact, warm):
            e_rate = (e_cell.result.adversarial_predictions == target).mean()
            w_rate = (w_cell.result.adversarial_predictions == target).mean()
            assert abs(e_rate - w_rate) <= 0.2

    def test_early_exited_rows_predict_target(self, setup):
        _, model, images, target = setup
        ladder = EpsilonLadder(
            model, attack="PGD", epsilons=EPSILONS, mode="warm", num_steps=10
        )
        cells = ladder.run(images, target)
        exited_any = 0
        for cell in cells:
            exit_steps = np.asarray(cell.result.metadata["early_exit_steps"])
            exited = exit_steps >= 0
            exited_any += int(exited.sum())
            if exited.any():
                # A frozen row really is adversarial under a fresh forward.
                fresh = model.predict(cell.result.adversarial_images[exited])
                assert (fresh == target).all()
                assert (cell.result.adversarial_predictions[exited] == target).all()
        assert exited_any > 0  # the ladder's top rungs saturate this model

    def test_warm_start_metadata(self, setup):
        _, model, images, target = setup
        cells = EpsilonLadder(
            model, attack="PGD", epsilons=EPSILONS[:2], mode="warm", num_steps=3
        ).run(images, target)
        assert cells[0].result.metadata["warm_started"] is False
        assert cells[1].result.metadata["warm_started"] is True

    def test_early_exits_counted_in_metrics(self, setup):
        _, model, images, target = setup
        with telemetry_session(metrics=True) as session:
            EpsilonLadder(
                model, attack="PGD", epsilons=EPSILONS, mode="warm", num_steps=10
            ).run(images, target)
        snapshot = session.metrics.snapshot()
        assert snapshot["attack_ladder.early_exits"]["value"] > 0
        assert snapshot["attack_ladder.forwards_saved"]["value"] > 0


class TestMetadataAndEdges:
    def test_metadata_populated(self, setup):
        _, model, images, target = setup
        cells = EpsilonLadder(
            model, attack="PGD", epsilons=EPSILONS[:1], mode="exact", num_steps=5
        ).run(images, target)
        meta = cells[0].result.metadata
        assert meta["iterations"] == 5
        assert meta["forwards"] == images.shape[0] * 6  # 5 gradient + 1 predict
        assert meta["backwards"] == images.shape[0] * 5
        assert meta["mode"] == "exact" and meta["ladder"] is True

    def test_per_cell_attack_metadata_populated(self, setup):
        """The unbatched oracle fills ``AttackResult.metadata`` too."""
        _, model, images, target = setup
        result = PGD(model, EPSILONS[0], num_steps=5).attack(images, target_class=target)
        assert result.metadata["iterations"] == 5
        assert result.metadata["forwards"] >= images.shape[0] * 5
        assert result.metadata["backwards"] == images.shape[0] * 5

    def test_empty_cohort(self, setup):
        _, model, images, target = setup
        empty = images[:0]
        for mode in ("exact", "warm"):
            cells = EpsilonLadder(
                model, attack="PGD", epsilons=EPSILONS, mode=mode
            ).run(empty, target)
            assert len(cells) == len(EPSILONS)
            for cell in cells:
                assert cell.result.adversarial_images.shape == empty.shape
                assert cell.result.adversarial_predictions.shape == (0,)
                assert cell.raw_features.shape == (0, model.feature_dim)

    def test_validation(self, setup):
        _, model, images, _ = setup
        with pytest.raises(ValueError):
            EpsilonLadder(model, attack="BIM", epsilons=EPSILONS)
        with pytest.raises(ValueError):
            EpsilonLadder(model, epsilons=EPSILONS, mode="fast")
        with pytest.raises(ValueError):
            EpsilonLadder(model, epsilons=())
        with pytest.raises(ValueError):
            EpsilonLadder(model, epsilons=(2.0,))  # 0-255 scale by mistake
        with pytest.raises(ValueError):
            EpsilonLadder(model, epsilons=EPSILONS, num_steps=0)
        with pytest.raises(ValueError):
            EpsilonLadder(model, attack="MIM", epsilons=EPSILONS, decay=-0.5)
        ladder = EpsilonLadder(model, epsilons=EPSILONS)
        with pytest.raises(ValueError):
            ladder.run(images, target_class=10_000)
        with pytest.raises(ValueError):
            ladder.run(images[0], target_class=0)
