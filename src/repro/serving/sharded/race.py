"""Runtime race detection for the sharded serving tier.

The static rules (RPR007–RPR010) catch the *patterns* that break the
single-writer / epoch-ordered protocol; this module is the runtime
barrier that catches what escapes them, in the same spirit as the
nn-side sanitizer's saved-tensor CRC checks.

Two pieces:

* :class:`ShmWriteSentinel` — CRC-32 stamps every array in a shard's
  bank at install time and re-verifies after each dispatched op.  Under
  ``race_check`` mode (``ShardedService.build(race_check=True)`` or the
  ``REPRO_RACE_CHECK=1`` environment toggle) every worker wraps its
  dispatch loop with one, so *any* op that mutates the shared segment —
  in this process or a sibling — fails the op that exposed it with a
  :class:`ShmRaceError` naming the corrupted keys, instead of surfacing
  as a parity diff three layers later.  The scan is a full checksum pass
  per op: strictly a test/debug mode, which is why it is off by default
  and carried as a flag on the spec.

* :class:`FaultInjectingHandle` — a wrapper handle that perturbs the
  *protocol* instead of the memory: epoch-stamped ``update`` casts can
  be deterministically duplicated, delayed (delivered later, out of
  order) or dropped.  The fault-injector tests drive a shard through
  every reordering and assert the contiguous-apply invariant: stale or
  duplicate epochs are dropped, gaps buffer, and no reordering ever
  resurrects a cache entry a newer epoch invalidated.
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from .shm import ArrayBank


class ShmRaceError(RuntimeError):
    """The shared segment changed under a worker mid-dispatch."""


def race_check_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the race-check toggle: explicit argument over environment.

    The environment hook (``REPRO_RACE_CHECK=1``) exists so existing
    suites — the 1/2/4-shard bitwise-parity tests, the fleet smoke
    tests — run unchanged under the sentinel without threading a flag
    through every call site.
    """
    if explicit is not None:
        return bool(explicit)
    return os.environ.get("REPRO_RACE_CHECK", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


class ShmWriteSentinel:
    """CRC-32 baseline over an :class:`ArrayBank`, re-verified per op.

    The stamp is content-only (raw bytes per key); shape/dtype are fixed
    by the manifest for the segment's lifetime.  ``verify`` recomputes
    and raises :class:`ShmRaceError` naming every changed key — the op
    and sequence number of the dispatch that exposed the write ride
    along so the failure points at a protocol step, not just a segment.
    """

    def __init__(self, bank: ArrayBank) -> None:
        self._bank = bank
        self._baseline = self._stamp()

    def _stamp(self) -> Dict[str, int]:
        stamps: Dict[str, int] = {}
        for key in self._bank.keys():
            view = self._bank[key]
            stamps[key] = zlib.crc32(np.ascontiguousarray(view).tobytes())
        return stamps

    def keys(self) -> List[str]:
        return list(self._baseline)

    def verify(self, op: Optional[str] = None, seq: Optional[int] = None) -> None:
        current = self._stamp()
        changed = sorted(
            key
            for key, crc in current.items()
            if crc != self._baseline.get(key, crc)
        )
        missing = sorted(set(self._baseline) - set(current))
        if not changed and not missing:
            return
        where = ""
        if op is not None:
            where = f" during op {op!r}" + (f" (seq {seq})" if seq is not None else "")
        parts = []
        if changed:
            parts.append(f"mutated key(s): {', '.join(changed)}")
        if missing:
            parts.append(f"vanished key(s): {', '.join(missing)}")
        raise ShmRaceError(
            f"shared segment changed under the worker{where} — "
            + "; ".join(parts)
            + " (single-writer protocol violated: workers must never "
            "write the published item side)"
        )


class FaultInjectingHandle:
    """Deterministic protocol faults around a shard handle (tests only).

    Intercepts epoch-stamped ``update`` casts and runs them through a
    fault plan — every other op passes straight through:

    * ``duplicate=True`` delivers every update twice, back to back.
    * ``delay_epochs`` holds the listed epochs back until
      :meth:`release_delayed` (delivery order = reversed hold order by
      default, maximising the reordering).
    * ``drop_epochs`` swallows the listed epochs entirely;
      :meth:`deliver_dropped` re-injects them later, simulating a slow
      duplicate arriving after the world moved on.

    The plan is data, not randomness — fault runs stay bitwise
    reproducible, per the repo's seeded-rng policy.
    """

    def __init__(
        self,
        inner,
        duplicate: bool = False,
        delay_epochs: Sequence[int] = (),
        drop_epochs: Sequence[int] = (),
    ) -> None:
        self.inner = inner
        self.shard_id = inner.shard_id
        self.user_ids = inner.user_ids
        self.duplicate = bool(duplicate)
        self.delay_epochs = frozenset(int(e) for e in delay_epochs)
        self.drop_epochs = frozenset(int(e) for e in drop_epochs)
        self.delayed: List[Dict] = []
        self.dropped: List[Dict] = []
        self.injected = {"duplicated": 0, "delayed": 0, "dropped": 0}

    # -- fault plan -------------------------------------------------------- #
    def cast(self, op: str, payload=None, timeout_s: float = 1.0) -> int:
        if op != "update" or not isinstance(payload, dict) or "epoch" not in payload:
            return self.inner.cast(op, payload, timeout_s=timeout_s)
        epoch = int(payload["epoch"])
        if epoch in self.drop_epochs:
            self.dropped.append(dict(payload))
            self.injected["dropped"] += 1
            return 0
        if epoch in self.delay_epochs:
            self.delayed.append(dict(payload))
            self.injected["delayed"] += 1
            return 0
        seq = self.inner.cast(op, payload, timeout_s=timeout_s)
        if self.duplicate:
            self.inner.cast(op, dict(payload), timeout_s=timeout_s)
            self.injected["duplicated"] += 1
        return seq

    def release_delayed(self, reverse: bool = True) -> int:
        """Deliver every held-back epoch; returns how many went out."""
        held = list(self.delayed)
        self.delayed = []
        if reverse:
            held.reverse()
        for payload in held:
            self.inner.cast("update", payload)
        return len(held)

    def deliver_dropped(self) -> int:
        """Re-inject previously dropped epochs (late duplicates)."""
        dropped = list(self.dropped)
        self.dropped = []
        for payload in dropped:
            self.inner.cast("update", payload)
        return len(dropped)

    # -- passthrough ------------------------------------------------------- #
    def call(self, op: str, payload=None, timeout_s: Optional[float] = None):
        return self.inner.call(op, payload, timeout_s=timeout_s)

    def send(self, op: str, payload=None) -> int:
        return self.inner.send(op, payload)

    def collect(self, ticket: int, timeout_s: Optional[float] = None):
        return self.inner.collect(ticket, timeout_s=timeout_s)

    def flush(self, timeout_s: Optional[float] = None):
        return self.inner.flush(timeout_s=timeout_s)

    def alive(self) -> bool:
        return self.inner.alive()

    def stop(self, timeout_s: float = 5.0) -> None:
        self.inner.stop(timeout_s=timeout_s)
