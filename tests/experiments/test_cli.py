"""Unit tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments import ExperimentConfig

FAST = [
    "--scale", "0.002",
    "--seed", "0",
    "--quiet",
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.attack == "pgd"
        assert args.eps == 8.0
        assert args.model == "vbpr"

    def test_dataset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--dataset", "movies"])

    def test_attack_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--attack", "deepfool"])


class TestStatsCommand:
    def test_prints_table1(self, capsys):
        code = main(["stats", "--dataset", "men", "--scale", "0.002"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "amazon_men_like" in out
        assert "sock" in out

    def test_women_dataset(self, capsys):
        code = main(["stats", "--dataset", "women", "--scale", "0.002"])
        assert code == 0
        assert "maillot" in capsys.readouterr().out


class TestTrainCommand:
    def test_reports_metrics(self, capsys, monkeypatch):
        self._shrink_training(monkeypatch)
        code = main(["train", "--dataset", "men", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "classifier accuracy" in out
        assert "VBPR" in out and "AMR" in out

    @staticmethod
    def _shrink_training(monkeypatch):
        """Make CLI runs affordable for unit tests."""
        import repro.cli as cli
        from repro.experiments import men_config

        def tiny_config(args):
            return men_config(
                scale=args.scale,
                seed=args.seed,
                image_size=16,
                classifier_epochs=4,
                recommender_epochs=4,
                amr_pretrain_epochs=2,
            )

        monkeypatch.setattr(cli, "_make_config", tiny_config)


class TestAttackCommand:
    def test_end_to_end(self, capsys, monkeypatch, tmp_path):
        TestTrainCommand._shrink_training(monkeypatch)
        png = os.path.join(tmp_path, "grid.png")
        code = main(
            [
                "attack",
                "--dataset", "men",
                *FAST,
                "--attack", "fgsm",
                "--eps", "8",
                "--cutoff", "20",
                "--save-images", png,
                "--num-images", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "success rate" in out
        assert "CHR@20" in out
        assert os.path.exists(png)

    def test_unknown_category_is_graceful(self, capsys, monkeypatch):
        TestTrainCommand._shrink_training(monkeypatch)
        code = main(
            ["attack", "--dataset", "men", *FAST, "--source", "flying_carpet"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTablesCommand:
    def test_prints_all_tables(self, capsys, monkeypatch):
        TestTrainCommand._shrink_training(monkeypatch)
        code = main(["tables", "--dataset", "men", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table III" in out
        assert "Table IV" in out

    def test_stdout_is_the_tables_stage_text(self, capsys, monkeypatch, tmp_path):
        """``repro tables`` is the stage DAG's ``tables`` stage, printed:
        a stage run over the same store hits every stage and holds the
        exact text the command wrote."""
        import repro.cli as cli
        from repro.artifacts import ArtifactStore
        from repro.experiments import StageRunner

        TestTrainCommand._shrink_training(monkeypatch)
        argv = ["tables", "--dataset", "men", *FAST, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        config = cli._make_config(build_parser().parse_args(argv))
        results, manifest = StageRunner(config, ArtifactStore(str(tmp_path))).run(
            stages=["tables"]
        )
        assert manifest.all_hits
        assert out == results.tables_text + "\n"


class TestLadderChoices:
    def test_off_is_not_a_ladder_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *FAST, "--ladder", "off"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(ValueError, match="ladder_mode"):
            ExperimentConfig(ladder_mode="off")


class TestRunCommand:
    def test_explain_is_free_and_lists_all_stages(self, capsys, tmp_path):
        code = main(
            ["run", "--dataset", "men", *FAST,
             "--cache-dir", str(tmp_path), "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for stage in ("dataset", "classifier", "features", "vbpr", "amr",
                      "clean_scores", "attack_grid", "tables"):
            assert stage in out
        assert "build" in out
        assert not any(tmp_path.iterdir())  # --explain must not build anything

    def test_run_writes_manifest_and_caches(self, capsys, tmp_path):
        import json

        cache = str(tmp_path / "store")
        manifest_path = tmp_path / "run.json"
        argv = [
            "run", "--dataset", "men", *FAST,
            "--cache-dir", cache, "--stages", "dataset",
            "--manifest", str(manifest_path),
        ]
        assert main(argv) == 0
        payload = json.loads(manifest_path.read_text())
        assert payload["manifest_version"] == 1
        assert payload["built"] == ["dataset"]

        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads(manifest_path.read_text())
        assert payload["built"] == []
        assert payload["cache_hits"] == ["dataset"]
        assert "1 cache hit(s), 0 built" in out

    def test_unknown_stage_is_graceful(self, capsys):
        code = main(["run", "--dataset", "men", *FAST, "--stages", "warp_drive"])
        assert code == 2
        assert "unknown stages" in capsys.readouterr().err

    def test_bad_epsilons_is_graceful(self, capsys):
        code = main(["run", "--dataset", "men", *FAST, "--epsilons", "8,oops"])
        assert code == 2
        assert "epsilons" in capsys.readouterr().err

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.cutoff == 100
        assert args.stages is None
        assert not args.explain
        assert not args.force
