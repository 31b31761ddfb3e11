"""Grid-level tests for the ε-ladder engine.

Pins the ladder contract against the per-cell oracle
(:func:`repro.experiments.runner.per_cell_grid`): ``ladder_mode="exact"``
produces the same grid cell for cell (bitwise on images, equal on every
derived number), ``"warm"`` stays within tolerance, the stage DAG
fingerprints the mode, and run manifests surface the attack accounting.
"""

import dataclasses
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.experiments import (
    StageRunner,
    attack_stats_from_rows,
    build_context,
    format_manifest,
    men_config,
    run_attack_grid,
    run_attack_grids,
    stage_fingerprints,
)
from repro.attacks.projections import epsilon_from_255
from repro.core import paper_scenarios, pipeline
from repro.experiments import parallel
from repro.experiments.parallel import WorkerTraceback
from repro.experiments.runner import (
    Column,
    Craft,
    build_cell_attack,
    build_ladder,
    grid_outcomes,
    per_cell_grid,
)
from repro.experiments.stages import _grid_row
from repro.metrics import batch_ssim
from repro.telemetry import telemetry_session
from tests.helpers import count_forks

TINY = dict(
    scale=0.002,
    image_size=16,
    classifier_epochs=8,
    recommender_epochs=5,
    amr_pretrain_epochs=2,
    cutoff=20,
    epsilons_255=(4.0, 8.0),
)


@pytest.fixture(scope="module")
def context():
    return build_context(men_config(**TINY))


def with_mode(context, mode):
    """The same trained context with another ``ladder_mode``."""
    return dataclasses.replace(
        context, config=dataclasses.replace(context.config, ladder_mode=mode)
    )


@pytest.fixture(scope="module")
def oracle_grid(context):
    return per_cell_grid(context, "VBPR")


class TestExactGridEquivalence:
    def test_exact_matches_per_cell_grid(self, context, oracle_grid):
        exact = run_attack_grid(context, "VBPR")
        assert len(exact.outcomes) == len(oracle_grid.outcomes)
        for a, b in zip(oracle_grid.outcomes, exact.outcomes):
            assert (a.scenario.source, a.attack_name, a.epsilon_255) == (
                b.scenario.source,
                b.attack_name,
                b.epsilon_255,
            )
            assert np.array_equal(a.adversarial_images, b.adversarial_images)
            assert a.success_rate == b.success_rate
            assert a.chr_source_after == b.chr_source_after
            assert a.visual.psnr == b.visual.psnr
            assert a.visual.ssim == b.visual.ssim
            assert a.visual.psm == b.visual.psm

    def test_shared_ladder_matches_independent_grids(self, context):
        """run_attack_grids shares one ladder across recommenders without
        changing any number."""
        shared = run_attack_grids(context, ("VBPR", "AMR"))
        for name, grid in zip(("VBPR", "AMR"), shared):
            independent = per_cell_grid(context, name)
            assert len(independent.outcomes) == len(grid.outcomes)
            for a, b in zip(independent.outcomes, grid.outcomes):
                assert np.array_equal(a.adversarial_images, b.adversarial_images)
                assert a.chr_source_after == b.chr_source_after
                assert a.chr_target_before == b.chr_target_before

    def test_warm_within_tolerance(self, context, oracle_grid):
        warm = run_attack_grid(with_mode(context, "warm"), "VBPR")
        assert len(warm.outcomes) == len(oracle_grid.outcomes)
        for a, b in zip(oracle_grid.outcomes, warm.outcomes):
            if a.attack_name == "FGSM":
                # FGSM has no iterates to warm-start: still bitwise.
                assert np.array_equal(a.adversarial_images, b.adversarial_images)
            else:
                assert abs(a.success_rate - b.success_rate) <= 0.25
                assert abs(a.visual.psnr - b.visual.psnr) <= 2.0
            eps = a.epsilon_255 / 255.0
            clean = context.dataset.images[b.attacked_item_ids]
            assert np.abs(b.adversarial_images - clean).max() <= eps + 1e-6

    def test_outcome_metadata_populated(self, context):
        exact = run_attack_grid(context, "VBPR")
        for outcome in exact.outcomes:
            meta = outcome.attack_metadata
            assert meta["ladder"] is True and meta["mode"] == "exact"
            assert meta["iterations"] >= 1
            assert meta["forwards"] > 0 and meta["backwards"] > 0


class TestMIMOnTheLadder:
    """MIM runs on the ε-ladder: exact grid cells equal per-cell MIM."""

    def test_exact_grid_matches_per_cell_mim(self, context):
        with telemetry_session(metrics=True) as session:
            (grid,) = run_attack_grids(
                context, ("VBPR",), attack_names=("FGSM", "PGD", "MIM")
            )
        assert "attack_ladder.fallback" not in session.metrics.snapshot()
        config = context.config
        mim = grid.cells(attack_name="MIM")
        scenarios = paper_scenarios(context.dataset.name, context.dataset.registry)
        assert len(mim) == len(scenarios) * len(config.epsilons_255)
        oracles = [
            grid.pipeline.attack_category(
                scenario,
                build_cell_attack(
                    "MIM",
                    context.classifier,
                    epsilon_255,
                    pgd_steps=config.pgd_steps,
                    seed=config.seed,
                ),
                attack_name="MIM",
            )
            for scenario in scenarios
            for epsilon_255 in config.epsilons_255
        ]
        for a, b in zip(oracles, mim):
            assert (a.scenario, a.epsilon_255) == (b.scenario, b.epsilon_255)
            assert np.array_equal(a.adversarial_images, b.adversarial_images)
            assert a.success_rate == b.success_rate
            assert a.chr_source_after == b.chr_source_after
            assert a.visual == b.visual

    def test_build_ladder_takes_cell_attack_options(self, context):
        epsilons = (epsilon_from_255(8.0),)
        ladder = build_ladder(
            "MIM",
            context.classifier,
            epsilons,
            "exact",
            pgd_steps=7,
            options={"num_steps": 3, "decay": 0.5},
        )
        assert (ladder.attack, ladder.num_steps, ladder.decay) == ("MIM", 3, 0.5)
        default = build_ladder("MIM", context.classifier, epsilons, "warm", pgd_steps=7)
        assert (default.num_steps, default.decay, default.mode) == (7, 1.0, "warm")
        with pytest.raises(ValueError, match="unused options"):
            build_ladder("PGD", context.classifier, epsilons, "exact", options={"decay": 1.0})


class TestStageIntegration:
    def test_fingerprint_tracks_ladder_mode(self):
        base = stage_fingerprints(men_config(**TINY))
        warm = stage_fingerprints(men_config(**TINY, ladder_mode="warm"))
        differing = {name for name in base if base[name] != warm[name]}
        assert "attack_grid" in differing
        # the trained artifacts must not churn
        assert "classifier" not in differing
        assert "recommenders" not in differing

    def test_cache_key_ignores_ladder_mode(self):
        assert (
            men_config(**TINY).cache_key()
            == men_config(**TINY, ladder_mode="warm").cache_key()
        )

    def test_run_manifest_carries_attack_stats(self):
        runner = StageRunner(men_config(**TINY), verbose=False)
        results, manifest = runner.run(stages=["attack_grid"])
        assert manifest.attack_stats is not None
        stats = manifest.attack_stats
        assert stats["cells"] == len(results.grid_rows)
        assert stats["attack_forwards"] > 0
        assert stats["attack_backwards"] > 0
        assert stats["ladder_mode"] == "exact"
        assert "attack grid:" in format_manifest(manifest)
        for row in results.grid_rows:
            assert row["ladder_mode"] == "exact"
            assert row["attack_iterations"] >= 1
            assert row["attack_forwards"] > 0

    def test_attack_stats_from_rows_empty(self):
        assert attack_stats_from_rows([]) is None


class TestGridRowParity:
    def test_ladder_rows_match_legacy_rows(self, context):
        """The attack_grid stage emits the same numbers via the ladder as
        the per-cell oracle does (modulo the accounting columns)."""
        oracle_rows = [
            _grid_row(name, outcome, "exact")
            for name in ("VBPR", "AMR")
            for outcome in per_cell_grid(context, name).outcomes
        ]
        exact_results, _ = StageRunner(
            men_config(**TINY, ladder_mode="exact"), verbose=False
        ).run(stages=["attack_grid"])
        assert len(oracle_rows) == len(exact_results.grid_rows)
        ignore = {
            "ladder_mode",
            "attack_iterations",
            "attack_forwards",
            "attack_backwards",
            "early_exited",
        }
        for a, b in zip(oracle_rows, exact_results.grid_rows):
            for key in a:
                if key in ignore:
                    continue
                assert a[key] == b[key], key


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestOneGridPass:
    """Each job crafts and measures; its results equal a one-CPU run's."""

    @staticmethod
    def column(context, measures):
        attacks = ("FGSM", "PGD")
        return Column(
            {name: Craft(context.classifier, name, context.item_classes) for name in attacks},
            context.item_classes,
            measures,
        )

    @staticmethod
    def run_column(context, column):
        config = context.config
        [(outcomes, skipped)] = grid_outcomes(
            [column],
            context.dataset,
            paper_scenarios(context.dataset.name, context.dataset.registry),
            config.epsilons_255,
            config.pgd_steps,
            config.seed,
            config.ladder_mode,
        )
        assert skipped == []
        return outcomes

    def test_forked_outcomes_equal_one_cpu_outcomes(self, context, monkeypatch):
        cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        forked = run_attack_grids(context, ("VBPR", "AMR"))
        assert len(forks) == 1
        cpus(monkeypatch, 1)
        serial = run_attack_grids(context, ("VBPR", "AMR"))
        assert len(forks) == 1
        for a_grid, b_grid in zip(forked, serial):
            assert len(a_grid.outcomes) == len(b_grid.outcomes) > 0
            for a, b in zip(a_grid.outcomes, b_grid.outcomes):
                assert a.scores_after.tobytes() == b.scores_after.tobytes()
                assert a.adversarial_images.tobytes() == b.adversarial_images.tobytes()
                assert (a.scenario, a.attack_name, a.epsilon_255) == (
                    b.scenario,
                    b.attack_name,
                    b.epsilon_255,
                )
                assert (a.chr_source_after, a.success_rate, a.visual) == (
                    b.chr_source_after,
                    b.success_rate,
                    b.visual,
                )

    def test_one_ssim_reference_per_cohort(self, context, monkeypatch):
        """Both paper scenarios attack the sock cohort: one SSIM clean
        side serves every job, and the SSIM values are unchanged."""
        cpus(monkeypatch, 1)
        built = []
        real = pipeline.ssim_reference
        monkeypatch.setattr(
            pipeline, "ssim_reference", lambda images: built.append(1) or real(images)
        )
        (grid,) = run_attack_grids(context, ("VBPR",))
        scenarios = grid.scenarios
        assert len({s.source for s in scenarios}) == 1 < len(scenarios)
        assert len(built) == 1
        for outcome in grid.outcomes:
            images = context.dataset.images[outcome.attacked_item_ids]
            assert outcome.visual.ssim == float(
                np.mean(batch_ssim(images, outcome.adversarial_images))
            )

    def test_a_failing_measure_names_its_job(self, context, monkeypatch):
        cpus(monkeypatch, 2)
        parent = os.getpid()
        raised = mp.get_context("fork").Event()

        def measure(scenario, attack_name, cells):
            if os.getpid() == parent:  # hold the first job until the worker fails
                raised.wait(timeout=30)
                return [0] * len(cells)
            raised.set()
            raise ArithmeticError(f"bad {attack_name}")

        column = self.column(context, {"VBPR": measure})
        with pytest.raises(ArithmeticError, match="bad") as caught:
            self.run_column(context, column)
        assert isinstance(caught.value.__cause__, WorkerTraceback)
        assert "crafting and measuring" in str(caught.value.__cause__)
        assert " on sock -> " in str(caught.value.__cause__)

    @pytest.mark.parametrize("count", [1, 2])
    def test_measures_run_on_one_blas_thread(self, context, count, monkeypatch):
        np.dot(np.ones((2, 2)), np.ones((2, 2)))  # numpy's OpenBLAS is loaded
        pools = parallel._openblas_pools()
        if not pools:
            pytest.skip("no OpenBLAS loaded")
        cpus(monkeypatch, count)

        def measure(scenario, attack_name, cells):
            return [[get() for get, _ in pools] for _ in cells]

        outcomes = self.run_column(context, self.column(context, {"VBPR": measure}))
        threads = [t for results in outcomes.values() for t in results]
        assert threads and threads == [[1] * len(pools)] * len(threads)
