"""Unit tests for experiment configs, context caching and runners."""

import numpy as np
import pytest

from repro.core import make_scenario
from repro.experiments import (
    ExperimentConfig,
    build_context,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    men_config,
    run_attack_grid,
    women_config,
)

TINY = dict(
    scale=0.002,
    image_size=16,
    classifier_epochs=8,
    recommender_epochs=5,
    amr_pretrain_epochs=2,
    cutoff=20,
    epsilons_255=(8.0,),
)


@pytest.fixture(scope="module")
def context():
    return build_context(men_config(**TINY))


class TestConfig:
    def test_cache_key_stable(self):
        assert men_config().cache_key() == men_config().cache_key()

    def test_cache_key_sensitive_to_training_fields(self):
        assert men_config().cache_key() != men_config(scale=0.01).cache_key()
        assert men_config().cache_key() != women_config().cache_key()

    def test_cache_key_ignores_attack_grid(self):
        assert (
            men_config().cache_key()
            == men_config(epsilons_255=(2.0,), pgd_steps=3).cache_key()
        )

    def test_cache_key_ignores_cutoff(self):
        """cutoff only affects evaluation, never training state."""
        assert men_config().cache_key() == men_config(cutoff=33).cache_key()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="movielens")
        with pytest.raises(ValueError):
            ExperimentConfig(scale=0)
        with pytest.raises(ValueError):
            ExperimentConfig(epsilons_255=(0.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(cutoff=0)


class TestContext:
    def test_fields_populated(self, context):
        assert context.dataset.num_items > 0
        assert context.features.shape == (
            context.dataset.num_items,
            context.classifier.feature_dim,
        )
        assert context.vbpr.is_fitted
        assert context.amr.is_fitted

    def test_second_context_builds_nothing(self, context):
        again = build_context(men_config(**TINY))
        assert again.manifest.all_hits

    def test_recommender_lookup(self, context):
        assert context.recommender("vbpr") is context.vbpr
        assert context.recommender("AMR") is context.amr
        with pytest.raises(KeyError):
            context.recommender("NCF")

    def test_disk_cache_roundtrip(self, tmp_path):
        config = men_config(**{**TINY, "seed": 99})
        first = build_context(config, cache_dir=str(tmp_path))
        second = build_context(config, cache_dir=str(tmp_path))
        assert second is not first
        np.testing.assert_allclose(
            second.vbpr.score_all(), first.vbpr.score_all(), atol=1e-12
        )
        preds_first = first.classifier.predict(first.dataset.images[:8])
        preds_second = second.classifier.predict(second.dataset.images[:8])
        np.testing.assert_array_equal(preds_first, preds_second)


class TestRunner:
    def test_grid_covers_all_cells(self, context):
        grid = run_attack_grid(context, "VBPR")
        # 2 scenarios x 1 epsilon x 2 attacks
        assert len(grid.outcomes) == 4
        assert {o.attack_name for o in grid.outcomes} == {"FGSM", "PGD"}

    def test_custom_epsilons_selection(self, context):
        custom = run_attack_grid(context, "VBPR", epsilons_255=(4.0,))
        assert len(custom.outcomes) == 4
        assert all(o.epsilon_255 == pytest.approx(4.0) for o in custom.outcomes)

    def test_cells_filtering(self, context):
        grid = run_attack_grid(context, "VBPR")
        scenario = grid.scenarios[0]
        cells = grid.cells(scenario=scenario, attack_name="PGD")
        assert len(cells) == 1
        assert cells[0].scenario == scenario

    def test_custom_scenarios(self, context):
        scenario = make_scenario(context.dataset.registry, "jeans", "running_shoe")
        grid = run_attack_grid(context, "VBPR", scenarios=[scenario])
        assert all(o.scenario == scenario for o in grid.outcomes)


class TestFormatters:
    def test_table1(self, context):
        text = format_table1({"amazon_men_like": context.dataset.stats()})
        assert "amazon_men_like" in text
        assert "|U|" in text

    def test_table2_contains_scenarios_and_values(self, context):
        grid = run_attack_grid(context, "VBPR")
        text = format_table2(grid.rows(), epsilons_255=(8.0,))
        assert "VBPR" in text
        assert "sock" in text
        assert "FGSM" in text and "PGD" in text

    def test_table3_deduplicates_scenarios(self, context):
        vbpr_grid = run_attack_grid(context, "VBPR")
        amr_grid = run_attack_grid(context, "AMR")
        text = format_table3(vbpr_grid.rows() + amr_grid.rows(), epsilons_255=(8.0,))
        # Each scenario appears once even across two model grids.
        assert text.count("sock → running_shoe") == 1

    def test_table4(self, context):
        grid = run_attack_grid(context, "VBPR")
        text = format_table4(grid.rows(), epsilons_255=(8.0,))
        assert "PSNR" in text and "SSIM" in text and "PSM" in text
