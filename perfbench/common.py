"""Shared plumbing: the result record, scratch directories, memory."""

from __future__ import annotations

import os
import resource
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from layers import perf_counter

#: Scratch root for artifact stores, under the directory the benchmark
#: runs from (the checkout root); removed when a run ends.
WORK_ROOT = ".perfbench_work"


@dataclass
class WorkloadResult:
    """What one workload run hands back to the report.

    ``samples`` holds every end-to-end sample (one per repetition or
    request block) so the report can show medians and quartiles;
    ``metrics`` holds the values emitted for ``--trace 0`` and
    ``layers`` those for ``--trace 1``.
    """

    samples: Dict[str, List[float]] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


class ScratchDirs:
    """Fresh directories under :data:`WORK_ROOT`, all removed on close."""

    def __init__(self) -> None:
        self.root = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        self._count = 0

    def fresh(self, label: str) -> str:
        self._count += 1
        path = os.path.join(self.root, f"{label}-{self._count}")
        os.makedirs(path)
        return path

    def remove(self, path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, or 0."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


#: Median of one :meth:`HostSpeed.probe` on the reference host (a 2-vCPU
#: VM at the faster of its two speeds, serving fleet up), measured once and
#: fixed here: the compute kernel, and ``PEER_ROUND_TRIPS`` round trips to
#: an echo peer.
REFERENCE_PROBE_S = 0.0007
REFERENCE_PEER_PROBE_S = 0.00055

#: Round trips to the echo peer in one probe run.
PEER_ROUND_TRIPS = 20

_PROBE_MATRIX = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96) / 96.0


def _echo(conn) -> None:
    """Echo peer's loop: send every message back; an empty one ends it."""
    while True:
        message = conn.recv_bytes()
        if not message:
            return
        conn.send_bytes(message)


class EchoPeer:
    """A process of the benchmark's own that echoes pipe messages.

    A served request is mostly a cross-process round trip, and the host's
    slow spells lengthen process wake-ups far more than they slow
    arithmetic: over runs spanning such spells, serving block walls scaled
    by round trips to this peer spread 0.05 (reads) and 0.11 (churn), and
    0.16 and 0.18 scaled by the compute kernel.
    """

    def __init__(self) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_echo, args=(child,), name="perfbench-echo", daemon=True)
        self._proc.start()
        child.close()

    def round_trips(self, count: int) -> None:
        for _ in range(count):
            self._conn.send_bytes(b"ping")
            self._conn.recv_bytes()

    def close(self) -> None:
        try:
            self._conn.send_bytes(b"")
        except OSError:
            pass
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join()
        self._conn.close()


class HostSpeed:
    """How fast the host runs right now, from a fixed reference kernel.

    The benchmark host switches between two speeds about 1.4x apart and
    stays in each for seconds to minutes, so raw timings say as much about
    the host's state as about the code.  A small kernel is timed before
    and after every measured sample, and :meth:`scale` converts the sample
    to seconds at the reference speed.  The kernel is compute (interpreter
    loop, BLAS products, ufuncs: the offline program's mix) or, given an
    :class:`EchoPeer`, round trips to it (the serving program's mix).  It
    is the benchmark's own code, so a change to the program never moves it.
    """

    def __init__(self, peer: Optional[EchoPeer] = None) -> None:
        self.peer = peer
        self.reference = REFERENCE_PROBE_S if peer is None else REFERENCE_PEER_PROBE_S
        self.probes: List[float] = []

    def _kernel(self) -> None:
        if self.peer is not None:
            self.peer.round_trips(PEER_ROUND_TRIPS)
            return
        total = 0
        for value in range(12000):
            total += value
        matrix = _PROBE_MATRIX
        for _ in range(8):
            matrix = np.tanh(matrix @ _PROBE_MATRIX)

    def probe(self, times: int = 5) -> float:
        """Median seconds of ``times`` kernel runs (also recorded)."""
        runs = []
        for _ in range(times):
            start = perf_counter()
            self._kernel()
            runs.append(perf_counter() - start)
        level = float(np.median(runs))
        self.probes.append(level)
        return level

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between two probes, at the reference speed."""
        return seconds * self.reference / (0.5 * (before + after))

    def timed(self, func):
        """``(result, raw seconds, reference seconds)`` of one call."""
        before = self.probe()
        start = perf_counter()
        result = func()
        seconds = perf_counter() - start
        return result, seconds, self.scale(seconds, before, self.probe())
