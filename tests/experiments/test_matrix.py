"""Scenario-matrix tests.

Two layers: pure fingerprint algebra (which config edit invalidates
which nodes — the column-selective property), and one tiny end-to-end
run crossing FGSM/NES/TRANSFER × none/detector × VBPR/BPRMF against an
artifact store — pinning cube semantics, warm-cache identity,
column-selective rebuilds, and bitwise parity of the undefended column
with the static ``attack_grid`` stage.  A wider cube pins forked crafting
to the rows of one-CPU and instrumented (serial) crafting.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.experiments import men_config
from repro.experiments.matrix import (
    MATRIX_ATTACKS,
    MATRIX_DEFENSES,
    MATRIX_RECOMMENDERS,
    MatrixConfig,
    MatrixRunner,
    cell_name,
    format_cube,
    matrix_fingerprints,
    matrix_node_order,
    recommender_node,
)
from repro.experiments.runner import build_cell_attack
from repro.metrics import batch_ssim
from repro.telemetry import telemetry_session
from tests.helpers import count_forks

TINY = dict(
    scale=0.002,
    image_size=16,
    seed=0,
    classifier_epochs=4,
    recommender_epochs=3,
    amr_pretrain_epochs=2,
    cutoff=10,
    epsilons_255=(8.0,),
)

ROW_KEYS = {
    "recommender", "source", "target", "semantically_similar", "attack",
    "epsilon_255", "chr_source_before", "chr_target_before",
    "chr_source_after", "success_rate", "psnr", "ssim", "psm",
    "num_attacked_items", "ladder_mode", "attack_iterations",
    "attack_forwards", "attack_backwards", "early_exited",
    "defense", "flagged_items",
}


def make_config(**overrides):
    base = overrides.pop("base", None) or men_config(**TINY)
    settings = dict(
        base=base,
        attacks=("FGSM", "NES", "TRANSFER"),
        defenses=("none", "detector"),
        recommenders=("VBPR", "BPRMF"),
        nes_steps=2,
        nes_samples=4,
    )
    settings.update(overrides)
    return MatrixConfig(**settings)


def full_config(**overrides):
    settings = dict(
        base=men_config(**TINY),
        attacks=MATRIX_ATTACKS,
        defenses=MATRIX_DEFENSES,
        recommenders=MATRIX_RECOMMENDERS,
    )
    settings.update(overrides)
    return MatrixConfig(**settings)


def changed_nodes(before: MatrixConfig, after: MatrixConfig) -> set:
    a, b = matrix_fingerprints(before), matrix_fingerprints(after)
    assert set(a) == set(b)
    return {name for name in a if a[name] != b[name]}


class TestNodeNaming:
    def test_cell_name(self):
        assert cell_name("squeeze", "PGD", "AMR") == "cell:squeeze/PGD/AMR"

    def test_recommender_node_routing(self):
        # BPR-MF is feature-free: one shared node for every defense.
        assert recommender_node("adv_train", "BPRMF") == "recommender:shared/BPRMF"
        # Identity-ingest defenses reuse the base stage artifacts.
        assert recommender_node("none", "VBPR") == "vbpr"
        assert recommender_node("detector", "AMR") == "amr"
        # Retraining defenses get their own per-defense nodes.
        assert recommender_node("squeeze", "VBPR") == "recommender:squeeze/VBPR"


class TestConfigValidation:
    def test_unknown_axis_values_rejected(self):
        with pytest.raises(ValueError):
            make_config(attacks=("FGSM", "DEEPFOOL"))
        with pytest.raises(ValueError):
            make_config(defenses=("none", "firewall"))
        with pytest.raises(ValueError):
            make_config(recommenders=("VBPR", "NCF"))

    def test_empty_and_duplicate_axes_rejected(self):
        with pytest.raises(ValueError):
            make_config(attacks=())
        with pytest.raises(ValueError):
            make_config(defenses=("none", "none"))

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            make_config(detector_fpr=1.5)
        with pytest.raises(ValueError):
            make_config(adv_epochs=0)

    def test_unknown_fingerprint_field_rejected(self):
        with pytest.raises(ValueError):
            make_config().field_fingerprint(("warp_factor",))


class TestFingerprintInvalidation:
    """The invalidation matrix: each knob owns exactly one column."""

    def test_every_node_fingerprinted(self):
        config = full_config()
        fps = matrix_fingerprints(config)
        for name, _ in matrix_node_order(config):
            assert name in fps
            assert len(fps[name]) == 16

    def test_identical_configs_agree(self):
        assert matrix_fingerprints(full_config()) == matrix_fingerprints(
            full_config()
        )

    def test_retraining_defense_knob_owns_its_column(self):
        changed = changed_nodes(full_config(), full_config(squeeze_bits=5))
        expected = {"defense:squeeze"}
        expected |= {f"recommender:squeeze/{rec}" for rec in ("VBPR", "AMR")}
        expected |= {
            cell_name("squeeze", attack, rec)
            for attack in MATRIX_ATTACKS
            for rec in MATRIX_RECOMMENDERS
        }
        assert changed == expected

    def test_identity_defense_knob_owns_only_its_cells(self):
        # detector never retrains, so no recommender node invalidates.
        changed = changed_nodes(full_config(), full_config(detector_fpr=0.1))
        expected = {"defense:detector"} | {
            cell_name("detector", attack, rec)
            for attack in MATRIX_ATTACKS
            for rec in MATRIX_RECOMMENDERS
        }
        assert changed == expected

    def test_attack_knob_owns_its_row(self):
        changed = changed_nodes(full_config(), full_config(nes_sigma=0.02))
        expected = {
            cell_name(defense, "NES", rec)
            for defense in MATRIX_DEFENSES
            for rec in MATRIX_RECOMMENDERS
        }
        assert changed == expected

    def test_transfer_seed_owns_surrogate_and_transfer_cells(self):
        changed = changed_nodes(full_config(), full_config(transfer_seed=7))
        expected = {"surrogate"} | {
            cell_name(defense, "TRANSFER", rec)
            for defense in MATRIX_DEFENSES
            for rec in MATRIX_RECOMMENDERS
        }
        assert changed == expected

    def test_eval_change_touches_every_cell_but_no_model(self):
        base = men_config(**{**TINY, "epsilons_255": (4.0, 8.0)})
        changed = changed_nodes(full_config(), full_config(base=base))
        matrix_nodes = {name for name, _ in matrix_node_order(full_config())}
        cells = {n for n in matrix_nodes if n.startswith("cell:")}
        assert cells <= changed
        # No defense, recommender, or surrogate retrains for an ε edit.
        assert not (changed & (matrix_nodes - cells))


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("matrix-store"))


@pytest.fixture(scope="module")
def config():
    return make_config()


@pytest.fixture(scope="module")
def cold(config, store_root):
    """The cold run that populates the store; every node builds."""
    return MatrixRunner(config, ArtifactStore(store_root)).run()


class TestMatrixRun:
    def test_cold_run_builds_every_node(self, cold, config):
        _, manifest = cold
        node_names = [name for name, _ in matrix_node_order(config)]
        assert set(node_names) <= set(manifest.built)
        assert sorted(manifest.cells) == sorted(
            name for name in node_names if name.startswith("cell:")
        )
        assert len(manifest.cells) == 12  # 2 defenses x 3 attacks x 2 recs
        for fingerprint in manifest.cells.values():
            assert len(fingerprint) == 16

    def test_one_visual_recommender_builds_only_its_base_stage(
        self, cold, config, store_root
    ):
        """A VBPR (+BPRMF) cube neither trains AMR nor runs the
        ``clean_scores`` stage, which scores both visual models."""
        _, manifest = cold
        assert [o.name for o in manifest.base_stages] == [
            "dataset", "classifier", "features", "vbpr",
        ]
        planned = {p.name for p in MatrixRunner(config, store=ArtifactStore(store_root)).plan()}
        assert not planned & {"amr", "clean_scores"}

    def test_cube_covers_every_cell_with_schema_rows(self, cold, config):
        results, manifest = cold
        scenarios_run = None
        for defense in config.defenses:
            for attack in config.attacks:
                for rec in config.recommenders:
                    rows = results.select(defense, attack, rec)
                    assert rows, (defense, attack, rec)
                    if scenarios_run is None:
                        scenarios_run = len(rows)
                    # Every cell measures the same scenario set.
                    assert len(rows) == scenarios_run
                    for row in rows:
                        assert set(row) == ROW_KEYS
                        assert row["defense"] == defense
                        assert row["attack"] == attack
                        assert row["recommender"] == rec
                        assert row["epsilon_255"] == 8.0
                        assert 0.0 <= row["success_rate"] <= 1.0
                        assert row["flagged_items"] >= 0
                        assert row["num_attacked_items"] > 0

    def test_bprmf_is_the_attack_free_control(self, cold):
        results, _ = cold
        rows = results.select(recommender="BPRMF")
        assert rows
        for row in rows:
            assert row["chr_source_after"] == row["chr_source_before"]

    def test_undefended_cells_never_flag(self, cold):
        results, _ = cold
        for row in results.select(defense="none"):
            assert row["flagged_items"] == 0

    def test_success_rate_summary(self, cold, config):
        results, manifest = cold
        rates = manifest.attack_stats["success_rates"]
        assert set(rates) == set(config.attacks)
        for attack, rate in rates.items():
            rows = results.select(attack=attack)
            assert rate == float(np.mean([row["success_rate"] for row in rows]))
        for rate in rates.values():
            assert 0.0 <= rate <= 1.0

    def test_stage_and_matrix_runs_write_one_manifest_schema(
        self, cold, config, store_root
    ):
        from repro.experiments import StageRunner

        _, matrix = cold
        _, stage = StageRunner(config.base, ArtifactStore(store_root)).run(
            stages=["dataset"]
        )
        assert type(stage) is type(matrix)
        assert set(stage.as_dict()) == set(matrix.as_dict())
        assert stage.as_dict()["manifest_version"] == matrix.as_dict()["manifest_version"]
        assert [o.name for o in matrix.stages] == [
            o.name for o in matrix.base_stages + matrix.nodes
        ]

    def test_format_cube(self, cold):
        results, _ = cold
        text = format_cube(results.rows)
        for token in ("defense", "detector", "TRANSFER", "NES", "flagged"):
            assert token in text
        assert format_cube([]) == "scenario matrix: no rows"

    def test_manifest_dict_round_trips(self, cold, tmp_path):
        import json

        _, manifest = cold
        path = str(tmp_path / "matrix.json")
        manifest.save(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["manifest_version"] == 2
        assert payload["cells"] == manifest.cells
        assert payload["attack_stats"]["cells"] > 0

    def test_warm_rerun_hits_every_node_with_identical_rows(
        self, cold, config, store_root
    ):
        fresh, _ = cold
        loaded, manifest = MatrixRunner(config, ArtifactStore(store_root)).run()
        assert manifest.built == []
        assert loaded.rows == fresh.rows

    def test_detector_edit_reruns_only_the_detector_column(
        self, cold, config, store_root
    ):
        fresh, cold_manifest = cold
        edited = make_config(detector_fpr=0.2)
        results, manifest = MatrixRunner(edited, ArtifactStore(store_root)).run()
        expected = {
            cell_name("detector", attack, rec)
            for attack in config.attacks
            for rec in config.recommenders
        }
        assert set(manifest.built) == expected
        # The untouched column is served from the store, bit for bit.
        assert results.select(defense="none") == fresh.select(defense="none")
        for name, fingerprint in manifest.cells.items():
            moved = fingerprint != cold_manifest.cells[name]
            assert moved == name.startswith("cell:detector/"), name

    def test_plan_reflects_store_state(self, cold, config, store_root, tmp_path):
        warm = MatrixRunner(config, store=ArtifactStore(store_root)).plan()
        assert all(p.would == "load" for p in warm)
        cold_plan = MatrixRunner(config, store=ArtifactStore(str(tmp_path))).plan()
        matrix_plans = [p for p in cold_plan if ":" in p.name]
        assert matrix_plans and all(p.would == "build" for p in matrix_plans)

    def test_unknown_force_node_rejected(self, config):
        with pytest.raises(ValueError, match="unknown matrix nodes"):
            MatrixRunner(config).run(force=("cell:nope/FGSM/VBPR",))

    def test_force_names_exactly_the_planned_nodes(self, cold, config, store_root):
        """``force`` accepts what ``plan()`` lists — base stages included —
        and nothing else; a forced deterministic stage rebuilds to the
        same content, so every consumer still loads."""
        store = ArtifactStore(store_root)
        planned = [p.name for p in MatrixRunner(config, store=store).plan()]
        assert "classifier" in planned and "defense:none" not in planned
        with pytest.raises(ValueError, match="unknown matrix nodes"):
            MatrixRunner(config, store=store).run(force=("defense:none",))
        fresh, _ = cold
        results, manifest = MatrixRunner(config, store).run(force=("classifier",))
        assert manifest.built == ["classifier"]
        assert results.rows == fresh.rows

    def test_stored_payload_layout_is_pinned(self, cold, config, store_root):
        """Each stored matrix kind's sorted (array keys, meta keys): a
        renamed payload key would orphan every stored artifact
        downstream.  The surrogate stores its ``state_dict`` and, unlike
        the ``classifier`` stage, no accuracy."""
        results, _ = cold
        store = ArtifactStore(store_root)
        fingerprints = matrix_fingerprints(config)
        layout = {
            "matrix_surrogate": (sorted(results.base.classifier.state_dict()), ["__inputs__"]),
            "matrix_bprmf": (["item_bias", "item_factors", "user_factors"], ["__inputs__"]),
            "matrix_cell": ([], ["__inputs__", "rows", "skipped_scenarios"]),
        }
        stored = matrix_node_order(config)
        assert {kind for _, kind in stored} == set(layout)
        for name, kind in stored:
            loaded = store.load(kind, fingerprints[name])
            assert (sorted(loaded.arrays), sorted(loaded.meta)) == layout[kind], name

    def test_none_column_matches_attack_grid(self, cold, config, store_root):
        """Every undefended FGSM/PGD × VBPR/AMR cell must be bitwise
        identical to the static ``attack_grid`` stage's rows, in the
        stage's order (per recommender: scenario → ε → attack) — the
        matrix generalises the stage, it must not drift from it."""
        from repro.experiments import StageRunner

        store = ArtifactStore(store_root)
        grid, _ = StageRunner(config.base, store=store).run(stages=["attack_grid"])
        undefended = make_config(
            attacks=("FGSM", "PGD"), defenses=("none",), recommenders=("VBPR", "AMR")
        )
        results, _ = MatrixRunner(undefended, store).run()

        def stage_order(rec):
            fgsm, pgd = (
                [
                    {k: v for k, v in row.items() if k not in ("defense", "flagged_items")}
                    for row in results.select("none", attack, rec)
                ]
                for attack in ("FGSM", "PGD")
            )
            return [row for pair in zip(fgsm, pgd) for row in pair]

        assert grid.grid_rows
        assert stage_order("VBPR") + stage_order("AMR") == grid.grid_rows

    def test_mim_cells_ride_the_ladder_with_their_options(self, cold, store_root):
        """MIM crafts through the ε-ladder with ``mim_steps``/``mim_decay``,
        and its rows equal per-cell MIM on the same cohort."""
        mim = make_config(
            attacks=("MIM",),
            defenses=("none",),
            recommenders=("VBPR",),
            mim_steps=2,
            mim_decay=0.5,
        )
        with telemetry_session(metrics=True) as session:
            results, manifest = MatrixRunner(mim, ArtifactStore(store_root)).run()
        assert "attack_ladder.fallback" not in session.metrics.snapshot()
        assert manifest.built == [cell_name("none", "MIM", "VBPR")]
        base = results.base
        registry = base.dataset.registry
        assert results.rows
        for row in results.rows:
            assert row["attack_iterations"] == 2
            source = np.flatnonzero(
                base.item_classes == registry.by_name(row["source"]).category_id
            )
            images = base.dataset.images[source]
            attack = build_cell_attack(
                "MIM", base.classifier, 8.0, options={"num_steps": 2, "decay": 0.5}
            )
            oracle = attack.attack(
                images,
                target_class=registry.by_name(row["target"]).category_id,
                original_predictions=base.item_classes[source],
            )
            assert row["success_rate"] == oracle.success_rate()
            assert row["ssim"] == float(
                np.mean(batch_ssim(images, oracle.adversarial_images))
            )


class TestForkedCrafting:
    """The craft phase forks across CPUs; the cube's rows must equal, as
    exact floats, the rows of a one-CPU run and of a run under telemetry
    (both craft serially, in-process)."""

    @pytest.fixture(scope="class")
    def cube(self, cold, store_root, tmp_path_factory):
        """none/squeeze/detector × FGSM/PGD/MIM/CW/TRANSFER × VBPR/AMR/BPRMF
        in a copy of the module store, every model node built."""
        root = str(tmp_path_factory.mktemp("forked-cube"))
        shutil.copytree(store_root, root, dirs_exist_ok=True)
        config = make_config(
            attacks=("FGSM", "PGD", "MIM", "CW", "TRANSFER"),
            defenses=("none", "squeeze", "detector"),
            recommenders=("VBPR", "AMR", "BPRMF"),
            cw_steps=3,
            mim_steps=2,
        )
        MatrixRunner(config, ArtifactStore(root)).run()
        return config, root

    @staticmethod
    def rerun(cube):
        """Re-craft every cell of the cube; the rows as exact JSON text."""
        config, root = cube
        cells = [name for name, _ in matrix_node_order(config) if name.startswith("cell:")]
        results, manifest = MatrixRunner(config, ArtifactStore(root)).run(force=cells)
        assert sorted(manifest.built) == sorted(cells)
        assert len(results.rows) > 0
        return json.dumps(results.rows)

    @staticmethod
    def count_forks(patch, cpus):
        """Child pids forked from here on, with ``cpus`` CPUs in the mask."""
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return count_forks(patch)

    @pytest.fixture(scope="class")
    def parallel_rows(self, cube):
        with pytest.MonkeyPatch.context() as patch:
            forks = self.count_forks(patch, cpus=2)
            rows = self.rerun(cube)
        assert len(forks) == 1  # one worker for the whole cube
        return rows

    def test_parallel_rows_equal_one_cpu_rows(self, cube, parallel_rows, monkeypatch):
        forks = self.count_forks(monkeypatch, cpus=1)
        assert self.rerun(cube) == parallel_rows
        assert forks == []

    def test_rows_under_telemetry_equal_plain_rows(self, cube, parallel_rows, monkeypatch):
        forks = self.count_forks(monkeypatch, cpus=2)
        with telemetry_session(metrics=True):
            assert self.rerun(cube) == parallel_rows
        assert forks == []
