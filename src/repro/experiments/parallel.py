"""Run independent jobs on every CPU this process may use.

:func:`forked_map` is how the attack grid crafts its (scenario, attack)
jobs side by side.  Workers are forked *after* the caller has built
everything the jobs read (classifier, dataset, defense runtime), so
nothing is pickled in: each worker inherits the parent's memory, claims
jobs from one shared counter, and sends its results back pickled over
one simplex pipe when the counter runs dry.  The parent claims jobs
too, then puts every result back in job order.  A job must be a pure
function of its index, so the results are identical bit for bit to a
serial run.

Jobs run with every OpenBLAS the process has loaded held to one thread
(:func:`one_blas_thread`), however they are spread.  Forked processes
then do not oversubscribe the CPUs with their BLAS pools (with two
pools of two threads on two CPUs, a tiny cube's forced rerun took
14-25 s instead of 5 s), and a job's values do not depend on the
thread count: OpenBLAS splits a GEMM's long inner sums across threads,
which can change their rounding.

Jobs run serially, in the caller's process, when there is only one job,
when the affinity mask holds one CPU, or when any telemetry collector
is active: spans, metric counters and the op profiler all live in the
parent, and a job run elsewhere would leave them blind.

No worker outlives the call: a worker's exception (re-raised in the
parent with its job named), an exception in the parent's own share and
``KeyboardInterrupt`` all reap every worker before the call returns.
Workers ignore ``SIGINT``, so a Ctrl-C reaches them only through the
parent's reaping.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import pickle
import signal
import traceback
from contextlib import contextmanager
from multiprocessing.connection import wait
from typing import Callable, Dict, Iterator, List, TypeVar

from ..telemetry import active_metrics, active_profiler, active_recorder

T = TypeVar("T")

_REAP_TIMEOUT_S = 5.0

#: (getter, setter) of an OpenBLAS thread count, per symbol naming scheme.
_OPENBLAS_THREAD_CALLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class WorkerTraceback(Exception):
    """The cause of an exception re-raised from a worker: its job and traceback."""


def worker_count(jobs: int) -> int:
    """Processes :func:`forked_map` runs ``jobs`` jobs on (the caller included)."""
    if jobs < 2:
        return 1
    if any(c() is not None for c in (active_recorder, active_metrics, active_profiler)):
        return 1
    return min(len(os.sched_getaffinity(0)), jobs)


def _openblas_pools() -> List[tuple]:
    """``(get, set)`` thread-count calls of each OpenBLAS loaded here."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:  # no procfs: leave the BLAS pools as they are
        return []
    pools = []
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get, set_ = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((get, set_))
                break
    return pools


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold every loaded OpenBLAS to one thread; restore the counts after.

    Workers forked inside the block inherit the setting.
    """
    pools = _openblas_pools()
    previous = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(pools, previous):
            set_(count)


def _run_claimed(
    run: Callable[[int], T], jobs: int, claim: Callable[[], int]
) -> Dict[int, T]:
    """Run claimed jobs until the counter passes ``jobs``; results by index."""
    results: Dict[int, T] = {}
    index = claim()
    while index < jobs:
        results[index] = run(index)
        index = claim()
    return results


def _claimer(counter) -> Callable[[], int]:
    def claim() -> int:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        return index

    return claim


def _worker_main(run, jobs: int, counter, describe, sender) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    claim = _claimer(counter)
    results: Dict[int, object] = {}
    index = claim()
    try:
        while index < jobs:
            results[index] = run(index)
            index = claim()
        reply = ("ok", results)
    except Exception as exc:
        with counter.get_lock():  # the others stop after their current job
            counter.value = jobs
        reply = ("error", _portable(exc), f"{describe(index)}:\n{traceback.format_exc()}")
    try:
        sender.send(reply)
    except Exception as exc:  # an unpicklable result
        failure = RuntimeError(f"worker reply not sent: {type(exc).__name__}: {exc}")
        sender.send(("error", failure, traceback.format_exc()))
    finally:
        sender.close()


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a ``RuntimeError``
    naming it (an exception whose ``__init__`` takes other arguments than
    its ``args`` pickles, but fails to unpickle)."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _receive(proc, receiver):
    """The worker's one reply; raises if it died before sending it."""
    wait([receiver, proc.sentinel])
    if receiver.poll():
        try:
            return receiver.recv()
        except EOFError:
            pass
    proc.join()
    raise RuntimeError(f"a forked worker died (exit code {proc.exitcode})")


def _reap(proc) -> None:
    # SIGTERM stays pending on a SIGSTOPped worker; SIGKILL does not.
    for end in (proc.terminate, proc.kill):
        if proc.is_alive():
            end()
            proc.join(timeout=_REAP_TIMEOUT_S)


def forked_map(
    run: Callable[[int], T], jobs: int, describe: Callable[[int], str]
) -> List[T]:
    """``[run(0), ..., run(jobs - 1)]``, over :func:`worker_count` processes.

    ``run`` must be a pure function of its index whose result pickles.
    ``describe(index)`` names a job in the error a worker's exception
    raises: the worker's exception object itself, with a
    :class:`WorkerTraceback` cause that carries the job and the
    worker-side traceback.
    """
    processes = worker_count(jobs)
    with one_blas_thread():
        if processes == 1:
            return [run(index) for index in range(jobs)]
        return _forked(run, jobs, describe, processes)


def _forked(run, jobs: int, describe, processes: int) -> list:
    ctx = mp.get_context("fork")
    counter = ctx.Value("q", 0)
    workers = []
    try:
        for _ in range(processes - 1):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(run, jobs, counter, describe, sender),
                name="repro-fork",
                daemon=True,
            )
            proc.start()
            sender.close()
            workers.append((proc, receiver))
        results = _run_claimed(run, jobs, _claimer(counter))
        for proc, receiver in workers:
            status, *payload = _receive(proc, receiver)
            if status == "error":
                exc, text = payload
                raise exc from WorkerTraceback(text)
            results.update(payload[0])
            proc.join(_REAP_TIMEOUT_S)
    finally:
        for proc, receiver in workers:
            _reap(proc)
            receiver.close()
    return [results[index] for index in range(jobs)]
