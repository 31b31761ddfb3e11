"""Layer clocks: attribute a wall to the program's layers from outside.

The benchmark never edits the program.  It times calls into each
layer's public functions by swapping a timing wrapper onto the name the
caller looks up (a class attribute, or a module global for functions
imported by name) and restoring the original afterwards.

:class:`LayerClock` keeps a stack of open calls so every layer is
charged its *self* time: a call's elapsed time minus the part spent in
wrapped calls nested inside it.  Self times of all layers plus the
root's own remainder add up to the measured wall exactly, so the
remainder (``unattributed``) is the part no wrapper covers.

:class:`SharedCounters` is the cross-process counterpart for the
serving fleet: an anonymous shared mapping created before the workers
fork, one row per process, which worker-side wrappers add into.
"""

from __future__ import annotations

import functools
import mmap
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

perf_counter = time.perf_counter


def _unwrap(owner: Any, name: str) -> Tuple[Any, Callable[[Callable], Any]]:
    """The raw callable behind ``owner.name`` plus a re-wrapper for it."""
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    if isinstance(raw, staticmethod):
        return raw.__func__, staticmethod
    return raw, lambda fn: fn


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def swap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        func, rewrap = _unwrap(owner, name)
        setattr(owner, name, rewrap(functools.wraps(func)(make(func))))
        self._undo.append((owner, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class LayerClock:
    """Self-time and call-count accounting over wrapped callables."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.wall_s = 0.0
        self.unattributed_s = 0.0
        self._stack: List[float] = []
        self.patches = Patches()

    def wrap(
        self,
        owner: Any,
        name: str,
        layer: str,
        on_enter: Optional[Callable[[], None]] = None,
        on_exit: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Charge every call of ``owner.name`` to ``layer``."""
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def make(func: Callable) -> Callable:
            def timed(*args, **kwargs):
                if on_enter is not None:
                    on_enter()
                stack.append(0.0)
                start = perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    nested = stack.pop()
                    self_s[layer] += elapsed - nested
                    calls[layer] += 1
                    if stack:
                        stack[-1] += elapsed
                if on_exit is not None:
                    on_exit(result)
                return result

            return timed

        self.patches.swap(owner, name, make)

    def measure(self, func: Callable, *args, **kwargs) -> Tuple[Any, float]:
        """Run ``func`` as the root call; returns ``(result, wall seconds)``."""
        if self._stack:
            raise RuntimeError("measure() calls must not nest")
        self._stack.append(0.0)
        start = perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            wall = perf_counter() - start
            nested = self._stack.pop()
            self.wall_s += wall
            self.unattributed_s += wall - nested
        return result, wall

    def restore(self) -> None:
        self.patches.restore()


class SharedCounters:
    """Float counters in an anonymous ``MAP_SHARED`` mapping.

    Created in the client before the fleet forks, so every worker
    inherits the same pages.  Each process adds only into its own row
    (``slot``), so no locking is needed.  The mapping belongs to the
    benchmark and holds nothing of the program's state.
    """

    def __init__(self, rows: int, fields: Sequence[str]) -> None:
        self.fields = tuple(fields)
        self.column = {name: index for index, name in enumerate(self.fields)}
        self._buffer = mmap.mmap(-1, max(1, rows * len(self.fields)) * 8)
        self.values = np.frombuffer(self._buffer, dtype=np.float64).reshape(
            rows, len(self.fields)
        )
        self.slot = rows - 1  # the client's row until a worker claims one

    def add(self, row: int, name: str, amount: float) -> None:
        self.values[row, self.column[name]] += amount

    def total(self, name: str, rows: Optional[Sequence[int]] = None) -> float:
        column = self.values[:, self.column[name]]
        return float(column.sum() if rows is None else column[list(rows)].sum())

    def reset(self) -> None:
        self.values[:] = 0.0

    def close(self) -> None:
        self.values = None  # drop the view before unmapping
        self._buffer.close()
