"""Self-tests for the interprocedural concurrency rules (RPR007–RPR010).

Same contract as ``test_lint.py``: each fixture carries one rule's
deliberate violations marked ``# VIOLATION``, the rule must fire exactly
on those lines, and the shipped ``src/repro`` tree must stay clean.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, LintEngine
from repro.analysis.engine import PACKAGE_ROOT
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
CONCURRENCY_RULES = ("RPR007", "RPR008", "RPR009", "RPR010")


def _engine() -> LintEngine:
    return LintEngine(ALL_RULES)


def _violation_lines(path: Path, rule: str):
    violations = _engine().run([path], select=[rule])
    assert all(v.rule == rule for v in violations)
    return [v.line for v in violations]


def _marked_lines(path: Path):
    return [
        lineno
        for lineno, text in enumerate(path.read_text().splitlines(), start=1)
        if "# VIOLATION" in text
    ]


class TestFixturesFireExactly:
    @pytest.mark.parametrize(
        "fixture, rule",
        [
            ("rpr007_shm.py", "RPR007"),
            ("rpr008_protocol.py", "RPR008"),
            ("rpr009_epochs.py", "RPR009"),
            ("rpr010_queues.py", "RPR010"),
        ],
    )
    def test_fixture_hits_marked_lines_only(self, fixture, rule):
        path = FIXTURES / fixture
        assert _violation_lines(path, rule) == _marked_lines(path)

    def test_rpr007_interprocedural_taint_reaches_helper(self):
        # The helper's own in-place write fires because a *caller* hands
        # it a bank view — per-file AST matching could never see that.
        path = FIXTURES / "rpr007_shm.py"
        violations = _engine().run([path], select=["RPR007"])
        helper = [v for v in violations if "in-place" in v.message and v.line < 20]
        assert helper, "taint did not propagate into _scale_in_place"

    def test_rpr007_copy_launders_taint(self):
        path = FIXTURES / "rpr007_shm.py"
        source = path.read_text().splitlines()
        violating = {v.line for v in _engine().run([path], select=["RPR007"])}
        private_lines = [
            lineno
            for lineno, text in enumerate(source, start=1)
            if "private" in text
        ]
        assert private_lines and not set(private_lines) & violating

    def test_rpr008_messages_name_both_directions(self):
        violations = _engine().run(
            [FIXTURES / "rpr008_protocol.py"], select=["RPR008"]
        )
        messages = " | ".join(v.message for v in violations)
        assert "no handler" in messages  # unknown op at the call site
        assert "dead protocol surface" in messages  # handler with no caller
        assert 'requires payload key "epoch"' in messages  # missing key

    def test_rpr009_annotates_worker_reachability(self):
        violations = _engine().run(
            [FIXTURES / "rpr009_epochs.py"], select=["RPR009"]
        )
        hot_patch = [v for v in violations if "update_item_features" in v.message]
        assert hot_patch
        # hot_patch is called from the fixture's _dispatch, so the
        # message names the worker dispatch table.
        assert any("worker dispatch" in v.message for v in hot_patch)

    def test_rpr008_reads_ops_at_split_sends_in_fan_out_lambdas(self):
        violations = _engine().run(
            [FIXTURES / "rpr008_protocol.py"], select=["RPR008"]
        )
        messages = " | ".join(v.message for v in violations)
        # "recommend_many" and "ping" are sent only from fan-out lambdas.
        assert '"recommend_many"' not in messages and '"ping"' not in messages
        assert 'op "stat" has no handler' in messages
        assert 'requires payload key "reason"' in messages
        assert 'op "recomend_many" has no handler' in messages  # split send

    def test_rpr010_split_sends_need_a_collect(self):
        violations = _engine().run(
            [FIXTURES / "rpr010_queues.py"], select=["RPR010"]
        )
        split = [v for v in violations if "split send()" in v.message]
        assert len(split) == 3
        assert any("drops its ticket" in v.message for v in split)

    def test_rpr010_inversions_point_at_both_sites(self):
        violations = _engine().run(
            [FIXTURES / "rpr010_queues.py"], select=["RPR010"]
        )
        inversions = [v for v in violations if "inversion" in v.message]
        assert len(inversions) == 2
        assert {v.line for v in inversions} == {
            lineno
            for lineno, text in enumerate(
                (FIXTURES / "rpr010_queues.py").read_text().splitlines(), start=1
            )
            if "order" in text and "# VIOLATION" in text
        }


class TestPragmasAndScope:
    def test_sanctioned_setflags_is_pragma_suppressed(self):
        # The fixture's sanctioned_escape re-enables the write flag under
        # `# lint: disable=RPR007`; dropping the pragma must re-fire it.
        path = FIXTURES / "rpr007_shm.py"
        source = path.read_text()
        assert "lint: disable=RPR007" in source
        pragma_line = next(
            lineno
            for lineno, text in enumerate(source.splitlines(), start=1)
            if "lint: disable=RPR007" in text
        )
        assert pragma_line not in _violation_lines(path, "RPR007")

    def test_pragma_removal_refires(self, tmp_path):
        source = (FIXTURES / "rpr007_shm.py").read_text()
        stripped = source.replace("  # lint: disable=RPR007", "")
        path = tmp_path / "unsanctioned.py"
        path.write_text(stripped)
        lines = _violation_lines(path, "RPR007")
        assert len(lines) == len(_marked_lines(FIXTURES / "rpr007_shm.py")) + 1

    def test_out_of_scope_modules_are_ignored(self):
        # Project rules scope to the serving tree inside the package;
        # a file under src/repro but outside serving/ must not be taxed.
        copy = PACKAGE_ROOT / "rng.py"
        violations = _engine().run([copy], select=list(CONCURRENCY_RULES))
        assert violations == []


class TestShippedTreeClean:
    @pytest.mark.parametrize("rule", CONCURRENCY_RULES)
    def test_src_repro_is_clean_per_rule(self, rule):
        violations = _engine().run([PACKAGE_ROOT], select=[rule])
        assert violations == [], LintEngine.format_text(violations)


class TestGithubFormat:
    def test_annotations_escape_and_count(self):
        path = FIXTURES / "rpr010_queues.py"
        violations = _engine().run([path], select=["RPR010"])
        out = LintEngine.format_github(violations)
        lines = out.splitlines()
        assert lines[-1] == f"{len(violations)} violation(s)"
        for line in lines[:-1]:
            assert line.startswith("::error file=")
            assert ",line=" in line and ",col=" in line and ",title=RPR010::" in line
            # Workflow-command grammar: no raw newlines inside a message.
            assert "\n" not in line

    def test_clean_run_renders_clean(self):
        assert LintEngine.format_github([]) == "clean: no violations"

    def test_escapes_reserved_characters(self):
        from repro.analysis.engine import Violation

        out = LintEngine.format_github(
            [Violation("RPR007", "x.py", 1, 1, "50% of\nwrites")]
        )
        assert "50%25 of%0Awrites" in out


class TestCli:
    @pytest.mark.parametrize(
        "fixture, rule",
        [
            ("rpr007_shm.py", "RPR007"),
            ("rpr008_protocol.py", "RPR008"),
            ("rpr009_epochs.py", "RPR009"),
            ("rpr010_queues.py", "RPR010"),
        ],
    )
    def test_each_fixture_fails_the_cli(self, fixture, rule, capsys):
        assert cli_main(["lint", "--select", rule, str(FIXTURES / fixture)]) == 1
        out = capsys.readouterr().out
        assert rule in out and f"{fixture}:" in out

    def test_github_format_via_cli(self, capsys):
        code = cli_main(
            ["lint", "--format", "github", "--select", "RPR007",
             str(FIXTURES / "rpr007_shm.py")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=RPR007" in out

    def test_json_format_carries_concurrency_rules(self, capsys):
        code = cli_main(
            ["lint", "--format", "json", "--select", "RPR008",
             str(FIXTURES / "rpr008_protocol.py")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule"] for entry in payload} == {"RPR008"}

    def test_explain_covers_new_rules(self, capsys):
        assert cli_main(["lint", "--explain", "--select", "RPR007"]) == 0
        out = capsys.readouterr().out
        assert "RPR007" in out and "single-writer" in out
