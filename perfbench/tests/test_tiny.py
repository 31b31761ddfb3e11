"""The benchmark's own tests: every workload in tiny mode, in seconds.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from layers import LayerClock  # noqa: E402
from stats import quartiles  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that must be non-zero where the layer runs.
LOADED = {
    "dag_cold": [
        "data.generate_s",
        "nn.forward_s",
        "nn.backward_s",
        "nn.op.conv2d.s",
        "nn.op.conv2d.bytes",
        "recommenders.fit_s",
        "attacks.ladder_s",
        "attacks.passes_per_image",
        "artifacts.save_s",
        "artifacts.bytes_written",
        "experiments.stage.classifier.s",
        "experiments.stage.attack_grid.s",
    ],
    "cube_rerun": [
        "nn.forward_s",
        "attacks.ladder_s",
        "attacks.per_cell_s",
        "core.rescore_s",
        "recommenders.score_s",
        "recommenders.score_calls",
        "metrics.visual_s",
        "defenses.s",
        "artifacts.load_s",
        "artifacts.bytes_read",
    ],
    "serve_read": [
        "serving.router.self_ms",
        "serving.rpc.ms",
        "serving.shard.recommend_ms",
        "serving.index.hit_rate",
        "serving.latency_p99_ms",
        "serving.latency_samples",
    ],
    "serve_churn": [
        "serving.scorer.score_block_calls",
        "serving.scorer.score_block_ms",
        "serving.update.apply_ms",
        "serving.update.invalidated_users",
        "serving.push_apply_ms",
    ],
}


def shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def session_processes(sid: int):
    """Pids (zombies included) still in session ``sid``; empty without /proc."""
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # state, ppid, pgrp, session
            found.append(int(entry))
    return found


def run_bench(*args, cwd=ROOT, out=None):
    """Run the benchmark in a session of its own; ``.pid`` names it."""
    command = [sys.executable, "perfbench/run.py", *args]
    if cwd != ROOT:
        command[1] = os.path.join(cwd, "perfbench", "run.py")
    if out is not None:
        command += ["--out", str(out)]
    with subprocess.Popen(
        command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        stdout, stderr = proc.communicate(timeout=300)
    done = subprocess.CompletedProcess(command, proc.returncode, stdout, stderr)
    done.pid = proc.pid
    return done


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_and_passes_its_checks(workload, trace):
    before = shm_segments()
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"
    )
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        assert 0 <= layers["unattributed_frac"] < 0.10
        assert layers["error_rate"] == 0
        assert [name for name in LOADED[workload] if not layers[name] > 0] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # No process the run started outlives it, not even as a zombie (the
    # benchmark reaps them all before it exits) ...
    assert session_processes(done.pid) == []
    # ... and no shared-memory segment survives the run.
    deadline = time.monotonic() + 5
    while shm_segments() - before and time.monotonic() < deadline:
        time.sleep(0.1)
    assert shm_segments() - before == set()


def test_compare_mode_reads_two_result_sets(tmp_path):
    for side in ("a", "b"):
        done = run_bench(
            "--workload", "serve_read", "--seconds", "1", "--tiny", out=tmp_path / f"{side}.jsonl"
        )
        assert done.returncode == 0, done.stderr
    done = run_bench("--compare", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
    assert done.returncode == 0, done.stderr
    assert "== serve_read" in done.stdout
    for metric in SPEC["end_to_end"]:
        line = next(x for x in done.stdout.splitlines() if x.startswith(metric["name"] + " "))
        assert any(word in line for word in ("within bound", "unresolved", "REGRESSED", "improved"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    done = run_bench("--workload", "dag_cold", "--seconds", "1", "--tiny", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_layer_self_times_add_up_to_the_wall():
    class Layers:
        @staticmethod
        def inner():
            time.sleep(0.01)

        @staticmethod
        def outer():
            time.sleep(0.01)
            Layers.inner()
            Layers.inner()

    original = Layers.__dict__["outer"]
    clock = LayerClock()
    clock.wrap(Layers, "outer", "outer")
    clock.wrap(Layers, "inner", "inner")
    try:
        _, wall = clock.measure(lambda: (Layers.outer(), time.sleep(0.01)))
    finally:
        clock.restore()
    assert clock.calls == {"outer": 1, "inner": 2}
    total = clock.self_s["outer"] + clock.self_s["inner"] + clock.unattributed_s
    assert total == pytest.approx(wall, abs=1e-9)
    assert clock.self_s["inner"] >= 0.02 and clock.self_s["outer"] >= 0.01
    assert clock.unattributed_s >= 0.01
    assert Layers.__dict__["outer"] is original


def test_statistics():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
