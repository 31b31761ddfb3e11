"""The fork helper behind the attack grid's craft phase.

``forked_map`` must hand results back in job order, re-raise a worker's
exception with its job named, leave no worker behind on any path out,
stay in-process whenever telemetry is collecting or the affinity mask
holds one CPU, and run every job on one OpenBLAS thread.  Forks are
counted by wrapping ``os.fork``.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.experiments import parallel
from repro.experiments.parallel import WorkerTraceback, forked_map, worker_count
from repro.telemetry import telemetry_session
from tests.helpers import count_forks


@pytest.fixture
def forks(monkeypatch):
    """Child pids forked while the test runs (counted in the parent)."""
    return count_forks(monkeypatch)


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def describe(index):
    return f"job #{index}"


def test_results_come_back_in_job_order(forks, monkeypatch):
    cpus(monkeypatch, 3)
    parent = os.getpid()
    barrier = mp.get_context("fork").Barrier(3)
    started = []  # each process's own copy after the fork

    def run(index):
        if not started:  # every process holds its first job until all three do
            started.append(index)
            barrier.wait(timeout=30)
        return index * index, os.getpid()

    results = forked_map(run, 9, describe)
    assert [value for value, _ in results] == [i * i for i in range(9)]
    assert len(forks) == 2
    assert {pid for _, pid in results} == {parent, *forks}
    assert mp.active_children() == []


def test_a_worker_exception_is_reraised_with_its_job_named(forks, monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    started = mp.get_context("fork").Event()

    def run(index):
        if os.getpid() == parent:
            # Hold the parent's first job until a worker has failed one.
            assert started.wait(timeout=30)
            return index
        started.set()
        raise ValueError(f"bad cohort {index}")

    with pytest.raises(ValueError, match="bad cohort") as excinfo:
        forked_map(run, 4, describe)
    cause = excinfo.value.__cause__
    assert isinstance(cause, WorkerTraceback)
    failed = str(excinfo.value).split()[-1]
    assert f"job #{failed}:" in str(cause)
    assert "Traceback" in str(cause)
    assert len(forks) == 1
    assert mp.active_children() == []


class ShapeError(Exception):
    def __init__(self, op, shape):
        super().__init__(f"{op}: bad shape {shape}")


def test_an_exception_that_cannot_unpickle_arrives_as_runtime_error(monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    started = mp.get_context("fork").Event()

    def run(index):
        if os.getpid() == parent:
            assert started.wait(timeout=30)
            return index
        started.set()
        raise ShapeError("conv2d", (2, 3))

    with pytest.raises(RuntimeError, match=r"ShapeError: conv2d: bad shape \(2, 3\)"):
        forked_map(run, 4, describe)
    assert mp.active_children() == []


def test_a_dead_worker_raises_instead_of_hanging(forks, monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    started = mp.get_context("fork").Event()

    def run(index):
        if os.getpid() == parent:
            assert started.wait(timeout=30)
            return index
        started.set()
        os._exit(3)

    with pytest.raises(RuntimeError, match="exit code 3"):
        forked_map(run, 4, describe)
    assert mp.active_children() == []


@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
def test_a_parent_side_failure_reaps_every_worker(failure, forks, monkeypatch):
    cpus(monkeypatch, 3)
    parent = os.getpid()
    ctx = mp.get_context("fork")
    busy, never = ctx.Semaphore(0), ctx.Event()

    def run(index):
        if os.getpid() != parent:
            busy.release()
            never.wait(timeout=60)  # busy until reaped
            return index
        for _ in range(2):  # both workers hold a job
            assert busy.acquire(timeout=30)
        raise failure("parent share failed")

    with pytest.raises(failure, match="parent share failed"):
        forked_map(run, 6, describe)
    assert len(forks) == 2
    assert mp.active_children() == []


def test_telemetry_keeps_the_jobs_in_process(forks):
    parent = os.getpid()
    with telemetry_session(metrics=True):
        assert worker_count(8) == 1
        pids = forked_map(lambda i: os.getpid(), 8, describe)
    assert pids == [parent] * 8
    assert forks == []


def test_one_cpu_keeps_the_jobs_in_process(forks, monkeypatch):
    cpus(monkeypatch, 1)
    parent = os.getpid()
    assert worker_count(8) == 1
    assert forked_map(lambda i: (i, os.getpid()), 8, describe) == [
        (i, parent) for i in range(8)
    ]
    assert forks == []


def test_worker_count(monkeypatch):
    cpus(monkeypatch, 4)
    assert [worker_count(jobs) for jobs in (0, 1, 2, 3, 9)] == [1, 1, 2, 3, 4]
    for collector in ("trace", "metrics", "profile"):
        with telemetry_session(**{collector: True}):
            assert worker_count(9) == 1


@pytest.mark.parametrize("count", [1, 2])
def test_jobs_run_on_one_blas_thread(count, monkeypatch):
    np.dot(np.ones((2, 2)), np.ones((2, 2)))  # numpy's OpenBLAS is loaded
    pools = parallel._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in pools]
    cpus(monkeypatch, count)
    threads = forked_map(lambda i: [get() for get, _ in pools], 4, describe)
    assert threads == [[1] * len(pools)] * 4
    assert [get() for get, _ in pools] == before


def test_blas_pools_are_resolved_once_per_process(monkeypatch):
    np.dot(np.ones((2, 2)), np.ones((2, 2)))  # numpy's OpenBLAS is loaded
    with parallel.one_blas_thread():
        pass  # resolves the pools, if nothing has yet
    pools = parallel._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS loaded")
    real_open = open
    opened = []

    def watching_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    original = [get() for get, _ in pools]
    monkeypatch.setattr("builtins.open", watching_open)
    try:
        for _, set_ in pools:
            set_(2)  # a count the block must restore, not the default
        with parallel.one_blas_thread():
            assert [get() for get, _ in pools] == [1] * len(pools)
        assert [get() for get, _ in pools] == [2] * len(pools)
    finally:
        for (_, set_), count in zip(pools, original):
            set_(count)
    assert "/proc/self/maps" not in opened
