"""Shared-memory publication of read-only array banks.

The sharded serving tier publishes the item-side scoring precompute
(``F·E``, ``F·β``, item biases and factors — see
:mod:`repro.serving.sharded.scorer`) **once** into a single
``multiprocessing.shared_memory`` segment; every worker process then
scores against zero-copy numpy views of that segment instead of holding
its own catalog-sized copies.  Three pieces:

* :class:`SharedArrayBundle` — the owner side.  Packs a dict of named
  arrays into one segment (offsets 64-byte aligned so BLAS kernels see
  the same alignment an ``np.empty`` would give them) and emits a
  picklable :class:`ShmManifest` describing the layout.
* :func:`attach_bundle` — the worker side.  Opens the segment by name
  and rebuilds *read-only* views from the manifest.  Attachment
  deliberately unregisters from the ``resource_tracker`` (or passes
  ``track=False`` where Python supports it): the router owns the
  segment's lifetime, and a worker exiting must never unlink a segment
  its siblings are still scoring against.
* :class:`ArrayBank` — the uniform read-only view container used by
  both the shm path and the in-process path (local shards used by the
  equivalence tests score against the very same class, minus the
  segment), so scorer code cannot tell the difference.

Teardown discipline: workers ``close()``, the owner ``close()`` *and*
``unlink()``.  :func:`segment_exists` makes "no leaked segments" an
assertable property — the shard-smoke CI job checks it after every run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

_ALIGNMENT = 64  # bytes; cache-line / BLAS-friendly offsets


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


@dataclass(frozen=True)
class SharedArraySpec:
    """Placement of one named array inside a segment (picklable)."""

    key: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ShmManifest:
    """Everything a worker needs to attach: segment name + layout."""

    segment: str
    total_bytes: int
    arrays: Tuple[SharedArraySpec, ...]


class ArrayBank:
    """Named read-only arrays behind one ``close()`` seam.

    ``closer`` is the attachment's release hook (``SharedMemory.close``
    for shm-backed banks, nothing for in-process banks).  Views are
    marked non-writeable so a scorer bug cannot silently corrupt state
    shared by every shard.
    """

    def __init__(self, arrays: Dict[str, np.ndarray], closer=None) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        for key, array in arrays.items():
            view = array.view()
            view.flags.writeable = False
            self._arrays[key] = view
        self._closer = closer
        self._closed = False

    @classmethod
    def snapshot(cls, arrays: Dict[str, np.ndarray]) -> "ArrayBank":
        """In-process bank: copies once (the publication snapshot)."""
        return cls({key: np.array(value, copy=True) for key, value in arrays.items()})

    def __getitem__(self, key: str) -> np.ndarray:
        return self._arrays[key]

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def keys(self) -> Iterator[str]:
        return iter(self._arrays)

    def close(self) -> None:
        """Release the backing attachment (idempotent).

        Views are dropped first: touching a closed shm mapping is a
        segfault, so a stale reference must fail as a KeyError instead.
        """
        if self._closed:
            return
        self._closed = True
        self._arrays.clear()
        if self._closer is not None:
            self._closer()


class SharedArrayBundle:
    """Owner side: one shm segment holding a dict of named arrays.

    The constructor copies each array into the segment at an aligned
    offset — this is the single publication copy; every subsequent
    reader is zero-copy.  The owner must eventually call :meth:`close`
    and :meth:`unlink`; workers attach via :func:`attach_bundle` with
    the :attr:`manifest`.
    """

    def __init__(self, arrays: Dict[str, np.ndarray], name: Optional[str] = None) -> None:
        if not arrays:
            raise ValueError("cannot publish an empty array bundle")
        specs = []
        offset = 0
        staged: Dict[str, np.ndarray] = {}
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = _aligned(offset)
            specs.append(
                SharedArraySpec(
                    key=key,
                    offset=offset,
                    shape=tuple(int(s) for s in array.shape),
                    dtype=array.dtype.str,
                )
            )
            staged[key] = array
            offset += array.nbytes
        total = max(1, offset)
        self.shm = shared_memory.SharedMemory(create=True, size=total, name=name)
        self.manifest = ShmManifest(
            segment=self.shm.name, total_bytes=total, arrays=tuple(specs)
        )
        for spec in specs:
            target = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=self.shm.buf, offset=spec.offset
            )
            target[...] = staged[spec.key]
        self._unlinked = False
        self._closed = False

    def bank(self) -> ArrayBank:
        """Zero-copy read-only views for the owner process itself."""
        return _views_over(self.manifest, self.shm, closer=None)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.shm.close()

    def unlink(self) -> None:
        if not self._unlinked:
            self._unlinked = True
            self.shm.unlink()

    def release(self) -> None:
        """close + unlink in the right order (idempotent)."""
        self.close()
        self.unlink()


def _views_over(manifest: ShmManifest, shm, closer) -> ArrayBank:
    arrays = {
        spec.key: np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
        )
        for spec in manifest.arrays
    }
    return ArrayBank(arrays, closer=closer)


def _attach_segment(name: str):
    """Open a segment by name without adopting its lifetime.

    Python's ``resource_tracker`` registers *attachments* as if they
    were creations (fixed only in newer interpreters via ``track=``);
    left alone, the first worker to exit would unlink the segment under
    every other shard.  On older interpreters the registration is
    suppressed for the duration of the attach — suppressed, not
    unregistered after the fact, because forked workers share the
    owner's tracker daemon and an unregister would strip the *owner's*
    entry, breaking its own unlink accounting.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # py >= 3.13
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _register(res_name, rtype):
        if rtype != "shared_memory":
            original(res_name, rtype)

    resource_tracker.register = _register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_bundle(manifest: ShmManifest) -> ArrayBank:
    """Worker side: read-only zero-copy views of a published bundle."""
    shm = _attach_segment(manifest.segment)
    return _views_over(manifest, shm, closer=shm.close)


def segment_exists(name: str) -> bool:
    """Is a POSIX shm segment with this name still present?

    Checks ``/dev/shm`` directly when the platform exposes it (Linux —
    the CI and benchmark hosts), falling back to an attach probe.  The
    fleet smoke tests assert this is False for every published segment
    after teardown.
    """
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        return os.path.exists(os.path.join(shm_dir, name.lstrip("/")))
    try:
        probe = _attach_segment(name)
    except FileNotFoundError:
        return False
    probe.close()
    return True
