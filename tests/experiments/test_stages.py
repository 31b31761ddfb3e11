"""Stage-DAG tests: selective invalidation, round-trip identity, manifests."""

import json
import os

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.core import TAaMRPipeline
from repro.recommenders import Recommender
from repro.experiments import (
    STAGE_ORDER,
    StageRunner,
    format_manifest,
    format_plan,
    men_config,
    stage_closure,
    stage_fingerprints,
)
from tests.helpers import count_forks

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
def store_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("artifact-store"))


@pytest.fixture(scope="module")
def config():
    return men_config(**TINY)


@pytest.fixture(scope="module")
def first_run(config, store_root):
    """The cold run that populates the store; everything builds."""
    return StageRunner(config, ArtifactStore(store_root)).run()


class TestFingerprints:
    def test_stable_and_complete(self, config):
        a = stage_fingerprints(config)
        b = stage_fingerprints(men_config(**TINY))
        assert a == b
        assert set(a) == set(STAGE_ORDER)

    def test_epsilon_change_localised(self, config):
        base = stage_fingerprints(config)
        changed = stage_fingerprints(men_config(**{**TINY, "epsilons_255": (4.0, 8.0)}))
        differing = {name for name in STAGE_ORDER if base[name] != changed[name]}
        assert differing == {"attack_grid", "tables"}

    def test_cutoff_change_localised(self, config):
        base = stage_fingerprints(config)
        changed = stage_fingerprints(men_config(**{**TINY, "cutoff": 10}))
        differing = {name for name in STAGE_ORDER if base[name] != changed[name]}
        assert differing == {"clean_scores", "attack_grid", "tables"}

    def test_upstream_change_cascades(self, config):
        base = stage_fingerprints(config)
        changed = stage_fingerprints(men_config(**{**TINY, "scale": 0.003}))
        assert all(base[name] != changed[name] for name in STAGE_ORDER)

    def test_unknown_config_field_rejected(self, config):
        with pytest.raises(ValueError):
            config.field_fingerprint(("not_a_field",))


class TestClosure:
    def test_full_order(self):
        assert stage_closure(STAGE_ORDER) == list(STAGE_ORDER)

    def test_transitive_deps(self):
        assert stage_closure(["vbpr"]) == ["dataset", "classifier", "features", "vbpr"]
        assert stage_closure(["dataset"]) == ["dataset"]

    def test_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stages"):
            stage_closure(["classifier", "nope"])


class TestRunCaching:
    def test_cold_run_builds_everything(self, first_run):
        _, manifest = first_run
        assert manifest.built == list(STAGE_ORDER)
        assert not manifest.all_hits

    def test_warm_run_all_hits(self, config, store_root, first_run):
        _, manifest = StageRunner(config, ArtifactStore(store_root)).run()
        assert manifest.all_hits
        assert manifest.cache_hits == list(STAGE_ORDER)
        assert manifest.built == []

    def test_epsilon_change_reruns_only_attack_stages(
        self, config, store_root, first_run
    ):
        changed = men_config(**{**TINY, "epsilons_255": (4.0,)})
        _, manifest = StageRunner(changed, ArtifactStore(store_root)).run()
        assert manifest.built == ["attack_grid", "tables"]
        assert manifest.cache_hits == [
            "dataset",
            "classifier",
            "features",
            "vbpr",
            "amr",
            "clean_scores",
        ]

    def test_cutoff_change_never_retrains(self, config, store_root, first_run):
        changed = men_config(**{**TINY, "cutoff": 10})
        _, manifest = StageRunner(changed, ArtifactStore(store_root)).run()
        assert manifest.built == ["clean_scores", "attack_grid", "tables"]
        assert "vbpr" in manifest.cache_hits and "amr" in manifest.cache_hits

    def test_force_rebuild_keeps_downstream_cached(
        self, config, store_root, first_run
    ):
        """Deterministic stages rebuild to identical content, so consumers
        of a forced stage still load from the store."""
        _, manifest = StageRunner(config, ArtifactStore(store_root)).run(
            force=("features",)
        )
        assert manifest.built == ["features"]
        outcome = next(o for o in manifest.stages if o.name == "features")
        assert outcome.reason == "forced rebuild"
        assert set(manifest.cache_hits) == set(STAGE_ORDER) - {"features"}

    def test_forced_grid_rows_equal_on_one_and_two_cpus(
        self, config, store_root, first_run, monkeypatch
    ):
        """The attack_grid stage's jobs craft and measure in a forked
        worker and in-process alike: the rows are the same JSON text."""
        forks = count_forks(monkeypatch)
        rows = {}
        for cpus in (2, 1):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            results, manifest = StageRunner(config, ArtifactStore(store_root)).run(
                force=["attack_grid"]
            )
            assert manifest.built == ["attack_grid"]
            rows[cpus] = json.dumps(results.grid_rows)
            assert len(forks) == 1
        assert rows[2] == rows[1] == json.dumps(first_run[0].grid_rows)

    def test_force_names_only_nodes_of_the_run(self, config):
        """``force`` accepts exactly what ``plan()`` lists for the run."""
        plans = StageRunner(config).plan(stages=("dataset",))
        assert [p.name for p in plans] == ["dataset"]
        for force in (("vbpr",), ("nope",)):
            with pytest.raises(ValueError, match="unknown stages"):
                StageRunner(config).run(stages=("dataset",), force=force)

    def test_corrupted_artifact_triggers_rebuild_not_silent_load(
        self, config, store_root, first_run
    ):
        store = ArtifactStore(store_root)
        path = store.path_for("stage_vbpr", stage_fingerprints(config)["vbpr"])
        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["user_factors"] = payload["user_factors"] + 1.0
        np.savez(path, **payload)
        _, manifest = StageRunner(config, store).run()
        assert manifest.built == ["vbpr"]
        outcome = next(o for o in manifest.stages if o.name == "vbpr")
        assert "refused stored artifact" in outcome.reason

    def test_partial_run_builds_only_closure(self, config, tmp_path):
        runner = StageRunner(config, store=ArtifactStore(str(tmp_path)))
        results, manifest = runner.run(stages=("features",))
        assert [o.name for o in manifest.stages] == [
            "dataset",
            "classifier",
            "features",
        ]
        assert results.features is not None and results.vbpr is None

    def test_storeless_run_builds_in_memory(self, config):
        results, manifest = StageRunner(config).run(stages=("dataset",))
        assert manifest.built == ["dataset"]
        assert manifest.store_root is None
        assert results.dataset is not None

    def test_memory_store_records_the_disk_hashes(self, config, first_run):
        _, disk = first_run
        _, memory = StageRunner(config).run()
        assert memory.built == disk.built == list(STAGE_ORDER)
        assert [(o.fingerprint, o.content_hash) for o in memory.stages] == [
            (o.fingerprint, o.content_hash) for o in disk.stages
        ]


#: Each stored stage kind's sorted (array keys, meta keys); the
#: classifier's arrays are its ``state_dict`` keys.  Renaming a payload
#: key changes the artifact's content hash: every downstream
#: ``__inputs__`` check then refuses the old artifacts and a user's store
#: silently rebuilds.
STAGE_LAYOUT = {
    "dataset": (
        ["images", "item_categories", "test_items", "train_flat", "train_offsets"],
        ["__inputs__", "name", "registry"],
    ),
    "classifier": (None, ["__inputs__", "accuracy"]),
    "features": (["item_classes", "mean", "raw_features", "scale"], ["__inputs__"]),
    "vbpr": (
        ["embedding", "item_bias", "item_factors", "user_factors", "visual_bias",
         "visual_user_factors"],
        ["__inputs__"],
    ),
    "amr": (
        ["embedding", "item_bias", "item_factors", "user_factors", "visual_bias",
         "visual_user_factors"],
        ["__inputs__"],
    ),
    "clean_scores": (
        ["amr_scores", "amr_top_n", "vbpr_scores", "vbpr_top_n"],
        ["__inputs__", "cutoff"],
    ),
    "attack_grid": ([], ["__inputs__", "rows"]),
    "tables": ([], ["__inputs__", "text"]),
}


def test_stored_payload_layout_is_pinned(store_root, first_run):
    results, manifest = first_run
    store = ArtifactStore(store_root)
    assert [o.name for o in manifest.stages] == list(STAGE_LAYOUT)
    for outcome in manifest.stages:
        arrays, meta = STAGE_LAYOUT[outcome.name]
        if arrays is None:
            arrays = sorted(results.classifier.state_dict())
        loaded = store.load(f"stage_{outcome.name}", outcome.fingerprint)
        assert (sorted(loaded.arrays), sorted(loaded.meta)) == (arrays, meta), outcome.name


class TestRoundTripIdentity:
    """Store-loaded state must be numerically identical to freshly built."""

    @pytest.fixture(scope="class")
    def warm_run(self, config, store_root, first_run):
        return StageRunner(config, ArtifactStore(store_root)).run()

    def test_features_identical(self, first_run, warm_run):
        fresh, _ = first_run
        loaded, _ = warm_run
        np.testing.assert_allclose(loaded.raw_features, fresh.raw_features, atol=0)
        np.testing.assert_allclose(loaded.features, fresh.features, atol=0)
        np.testing.assert_array_equal(loaded.item_classes, fresh.item_classes)

    def test_classifier_logits_identical(self, first_run, warm_run):
        fresh, _ = first_run
        loaded, _ = warm_run
        images = fresh.dataset.images[:4]
        np.testing.assert_allclose(
            loaded.classifier.predict_proba(images),
            fresh.classifier.predict_proba(images),
            atol=0,
        )

    def test_recommender_scores_identical(self, first_run, warm_run):
        fresh, _ = first_run
        loaded, _ = warm_run
        for name in ("VBPR", "AMR"):
            np.testing.assert_allclose(
                loaded.recommender(name).score_all(),
                fresh.recommender(name).score_all(),
                atol=0,
            )
            np.testing.assert_allclose(
                loaded.clean_scores[name], fresh.clean_scores[name], atol=0
            )
            np.testing.assert_array_equal(
                loaded.clean_top_n[name], fresh.clean_top_n[name]
            )

    def test_tables_byte_identical(self, first_run, warm_run):
        fresh, _ = first_run
        loaded, _ = warm_run
        assert loaded.tables_text == fresh.tables_text
        assert "Table II" in loaded.tables_text

    def test_catalog_state_usable(self, warm_run):
        results, _ = warm_run
        state = results.catalog_state("VBPR")
        assert state.clean_scores is results.clean_scores["VBPR"]
        assert state.features is results.features

    def test_pipelines_reuse_stored_clean_top_n(self, config, warm_run, monkeypatch):
        results, _ = warm_run
        calls = []
        top_n = Recommender.top_n

        def counting_top_n(self, *args, **kwargs):
            calls.append(type(self).__name__)
            return top_n(self, *args, **kwargs)

        monkeypatch.setattr(Recommender, "top_n", counting_top_n)
        pipelines = results.pipelines(["VBPR", "AMR"], config.cutoff)
        assert calls == []
        for name, pipeline in pipelines.items():
            np.testing.assert_array_equal(pipeline.clean_top_n, results.clean_top_n[name])
        with pytest.raises(ValueError, match="clean_top_n"):
            TAaMRPipeline(
                results.dataset,
                results.extractor,
                results.vbpr,
                cutoff=config.cutoff - 1,
                precomputed=results.catalog_state("VBPR"),
            )


class TestManifest:
    def test_json_round_trip(self, first_run, tmp_path):
        _, manifest = first_run
        path = os.path.join(tmp_path, "nested", "manifest.json")
        manifest.save(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["manifest_version"] == 2
        assert payload["built"] == list(STAGE_ORDER)
        assert [entry["name"] for entry in payload["stages"]] == list(STAGE_ORDER)
        assert all(entry["fingerprint"] for entry in payload["stages"])
        assert payload["total_seconds"] > 0

    def test_format_manifest(self, first_run):
        _, manifest = first_run
        text = format_manifest(manifest)
        assert "attack_grid" in text
        assert "8 built" in text
        assert "mean success [PGD]" in text

    def test_success_rates_are_per_attack_row_means(self, first_run):
        results, manifest = first_run
        rates = manifest.attack_stats["success_rates"]
        assert set(rates) == {"FGSM", "PGD"}
        for attack, rate in rates.items():
            rows = [row for row in results.grid_rows if row["attack"] == attack]
            assert rate == float(np.mean([row["success_rate"] for row in rows]))

    def test_stage_run_lists_no_matrix_nodes(self, first_run):
        _, manifest = first_run
        assert manifest.base_stages == manifest.stages
        assert manifest.nodes == [] and manifest.cells == {}
        assert manifest.as_dict()["skipped_scenarios"] == {}


def test_tables_stage_renders_the_attack_grid_rows(config, first_run):
    """The ``tables`` stage text is the table formatters over the rows
    of :func:`run_attack_grids` on the same config, byte for byte."""
    from repro.experiments import (
        format_table2,
        format_table3,
        format_table4,
        run_attack_grids,
    )

    results, _ = first_run
    rows = [row for grid in run_attack_grids(results) for row in grid.rows()]
    assert rows == results.grid_rows
    epsilons = config.epsilons_255
    expected = "\n\n".join(
        [
            format_table2(rows, epsilons),
            format_table3(rows, epsilons),
            format_table4(rows, epsilons),
        ]
    )
    assert results.tables_text == expected


class TestManifestWrites:
    @pytest.mark.parametrize("kind", ["run", "matrix"])
    def test_failed_write_keeps_previous_manifest(self, kind, tmp_path, monkeypatch):
        """A write that dies midway leaves the previous manifest intact and
        no temporary file behind."""
        from repro.experiments import RunManifest

        manifest = RunManifest(
            config_key="k",
            config={},
            store_root=None,
            skipped_scenarios={"squeeze": ["sock->running_shoe"]} if kind == "matrix" else {},
        )
        path = str(tmp_path / "manifest.json")
        manifest.save(path)
        with open(path, encoding="utf-8") as handle:
            before = handle.read()

        def interrupted_dump(payload, handle, **kwargs):
            handle.write('{"manifest_version": ')
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted_dump)
        with pytest.raises(KeyboardInterrupt):
            manifest.save(path)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["manifest.json"]


def _run_stages(config, store):
    return StageRunner(config, store).run(stages=("vbpr",))


def _run_bprmf_cube(config, store):
    from repro.experiments import MatrixConfig, MatrixRunner

    cube = MatrixConfig(base=config, attacks=("FGSM",), recommenders=("BPRMF",))
    return MatrixRunner(cube, store).run()


class TestNodeProtocol:
    @pytest.mark.parametrize(
        "run, kind, name, dep",
        [
            (_run_stages, "stage_vbpr", "vbpr", "features"),
            (_run_bprmf_cube, "matrix_bprmf", "recommender:shared/BPRMF", "dataset"),
        ],
        ids=["stage", "matrix-node"],
    )
    def test_tampered_inputs_refused(
        self, config, store_root, first_run, run, kind, name, dep
    ):
        """Stages and matrix nodes share one load-verify protocol: an
        artifact whose recorded ``__inputs__`` no longer match this run's
        upstream content is refused, with the same reason, and rebuilt."""
        store = ArtifactStore(store_root)
        run(config, store)
        (ref,) = store.list(kind)
        loaded = store.load(kind, ref.fingerprint)
        meta = dict(loaded.meta)
        meta["__inputs__"] = {**meta["__inputs__"], dep: "0" * 64}
        store.save(kind, ref.fingerprint, loaded.arrays, meta=meta)

        _, manifest = run(config, store)
        assert manifest.built == [name]
        outcomes = getattr(manifest, "nodes", None) or manifest.stages
        (outcome,) = [o for o in outcomes if o.name == name]
        assert outcome.reason == (
            "refused stored artifact: inputs changed since the artifact "
            f"was built: ['{dep}']"
        )


class TestPlan:
    def test_plan_reflects_store_state(self, config, store_root, first_run, tmp_path):
        warm = StageRunner(config, store=ArtifactStore(store_root)).plan()
        assert all(p.would == "load" for p in warm)
        cold = StageRunner(config, store=ArtifactStore(str(tmp_path))).plan()
        assert all(p.would == "build" for p in cold)
        text = format_plan(cold)
        assert "missing" in text and "tables" in text

    def test_plan_without_store(self, config):
        plans = StageRunner(config).plan(stages=("classifier",))
        assert [p.name for p in plans] == ["dataset", "classifier"]
        assert all(not p.cached for p in plans)


class TestContextIntegration:
    def test_build_context_uses_store(self, config, store_root, first_run):
        from repro.experiments import build_context

        context = build_context(config, cache_dir=store_root)
        assert context.manifest is not None
        assert context.manifest.all_hits
        assert context.classifier_accuracy is None or context.classifier_accuracy >= 0
        assert context.catalog_state() is not None

    def test_service_warm_start_from_stage_results(self, first_run):
        from repro.serving import ShardedService

        results, _ = first_run
        service = ShardedService.from_stage_results(results, "VBPR", n=5)
        hits_before = service.stats()["cache"]["hits"]
        top = service.recommend(0)
        assert len(top) == 5
        assert service.stats()["cache"]["hits"] >= hits_before + 1

    def test_two_shard_service_from_stage_results(self, first_run):
        from repro.serving import ShardedService

        results, _ = first_run
        users = np.arange(results.dataset.num_users)
        build = ShardedService.from_stage_results
        # An identical fleet pushed through the async router: its raw acks
        # are the oracle for the report the synchronous push sums up.
        with build(results, "VBPR", n=5) as one, build(
            results, "VBPR", n=5, num_shards=2
        ) as two, build(results, "VBPR", n=5, num_shards=2) as twin:
            np.testing.assert_array_equal(
                two.recommend_batch(users), one.recommend_batch(users)
            )
            twin.recommend_batch(users)

            items = np.array([1, 4, 9])
            noise = np.random.default_rng(0).normal(
                0.0, 5.0, (items.size, results.features.shape[1])
            )
            pushed = results.features[items] + noise
            report = two.push_item_features(items, pushed)
            one.push_item_features(items, pushed)
            twin.router.push_item_features(items, pushed)
            acks = twin.flush()
            assert len(acks) == 2
            assert report.cached_users == sum(a["cached_users"] for a in acks) == users.size
            assert report.num_invalidated == sum(a["invalidated_users"] for a in acks) > 0
            np.testing.assert_array_equal(
                two.recommend_batch(users), one.recommend_batch(users)
            )
