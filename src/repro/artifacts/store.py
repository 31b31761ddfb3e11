"""Content-addressed artifact stores backing the experiment stage DAG.

One :class:`ArtifactStore` roots a directory of artifacts laid out as
``<root>/<kind>/<fingerprint>.npz``; a :class:`MemoryArtifactStore`
keeps the same envelopes in process, for runs without a cache
directory.  Both address artifacts by ``(kind, fingerprint)``, refuse
through the same envelope checks, record the same ``content_hash`` and
hand out read-only arrays.  The *fingerprint* is the lookup
key — a deterministic hash of everything that produced the artifact
(the config fields the producing stage reads plus the fingerprints of
its upstream stages) — so two configs that agree on a stage's inputs
share its artifact, and any input change lands on a fresh path instead
of overwriting.  The payload itself travels in the envelope protocol of
:mod:`repro.artifacts.payload`, which records a ``content_hash`` that
downstream stages use to verify the exact bytes they were built from.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .payload import (
    ArtifactMissingError,
    check_envelope,
    envelope,
    read_header,
    read_payload,
    write_payload,
)

_SAFE_COMPONENT = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass(frozen=True)
class ArtifactRef:
    """Provenance record of one stored artifact."""

    kind: str
    fingerprint: str
    path: Optional[str]  # None in a memory store
    content_hash: str
    meta: Dict[str, Any] = field(default_factory=dict)


class ArtifactStore:
    """Save/load named artifacts under a root directory.

    Every artifact is addressed by ``(kind, fingerprint)``; the store
    never overwrites one fingerprint's file with another's content, and
    loading re-checks kind, schema version, fingerprint and payload
    integrity via the shared envelope protocol.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)

    def path_for(self, kind: str, fingerprint: str) -> str:
        for component in (kind, fingerprint):
            if not _SAFE_COMPONENT.match(component):
                raise ValueError(
                    f"artifact address component '{component}' must match "
                    f"{_SAFE_COMPONENT.pattern}"
                )
        return os.path.join(self.root, kind, f"{fingerprint}.npz")

    def exists(self, kind: str, fingerprint: str) -> bool:
        return os.path.exists(self.path_for(kind, fingerprint))

    def save(
        self,
        kind: str,
        fingerprint: str,
        arrays: Mapping[str, np.ndarray],
        *,
        schema_version: int = 1,
        meta: Optional[Dict[str, Any]] = None,
    ) -> ArtifactRef:
        path = self.path_for(kind, fingerprint)
        digest = write_payload(
            path,
            kind=kind,
            schema_version=schema_version,
            arrays=arrays,
            fingerprint=fingerprint,
            meta=meta,
        )
        return ArtifactRef(
            kind=kind,
            fingerprint=fingerprint,
            path=path,
            content_hash=digest,
            meta=dict(meta or {}),
        )

    def load(
        self,
        kind: str,
        fingerprint: str,
        *,
        schema_version: int = 1,
    ) -> "LoadedArtifact":
        path = self.path_for(kind, fingerprint)
        arrays, meta, digest = read_payload(
            path, kind=kind, schema_version=schema_version, fingerprint=fingerprint
        )
        ref = ArtifactRef(kind, fingerprint, path, digest, meta)
        return LoadedArtifact(ref=ref, arrays=arrays, meta=meta)

    def list(self, kind: Optional[str] = None) -> List[ArtifactRef]:
        """Refs of every stored artifact (header-only scan)."""
        refs: List[ArtifactRef] = []
        kinds = [kind] if kind is not None else sorted(
            entry for entry in (os.listdir(self.root) if os.path.isdir(self.root) else [])
            if os.path.isdir(os.path.join(self.root, entry))
        )
        for entry in kinds:
            directory = os.path.join(self.root, entry)
            if not os.path.isdir(directory):
                continue
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".npz"):
                    continue
                fingerprint = name[: -len(".npz")]
                header = read_header(os.path.join(directory, name))
                refs.append(
                    ArtifactRef(
                        kind=entry,
                        fingerprint=fingerprint,
                        path=os.path.join(directory, name),
                        content_hash=str(header.get("content_hash")),
                        meta=dict(header.get("meta") or {}),
                    )
                )
        return refs


class MemoryArtifactStore:
    """:class:`ArtifactStore`'s ``exists``/``save``/``load`` without files.

    ``save`` keeps a frozen copy of each array, never the caller's own,
    with the JSON envelope a file would carry; ``load`` re-checks that
    envelope and hands out read-only views of the copies, which cannot
    be made writable again.  ``root`` is ``None``: nothing persists
    beyond the store object.
    """

    root: Optional[str] = None

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], Tuple[str, Dict[str, np.ndarray]]] = {}

    def exists(self, kind: str, fingerprint: str) -> bool:
        return (kind, fingerprint) in self._entries

    def save(
        self,
        kind: str,
        fingerprint: str,
        arrays: Mapping[str, np.ndarray],
        *,
        schema_version: int = 1,
        meta: Optional[Dict[str, Any]] = None,
    ) -> ArtifactRef:
        frozen = {name: np.array(value) for name, value in arrays.items()}
        for value in frozen.values():
            value.setflags(write=False)
        header = envelope(kind, schema_version, frozen, fingerprint, meta)
        self._entries[(kind, fingerprint)] = (json.dumps(header), frozen)
        return ArtifactRef(kind, fingerprint, None, header["content_hash"], header["meta"])

    def load(
        self,
        kind: str,
        fingerprint: str,
        *,
        schema_version: int = 1,
    ) -> "LoadedArtifact":
        if (kind, fingerprint) not in self._entries:
            raise ArtifactMissingError(
                f"no '{kind}' artifact for fingerprint {fingerprint} in memory"
            )
        text, frozen = self._entries[(kind, fingerprint)]
        # Parsed afresh on every load, like a file's: each caller owns its meta.
        header = json.loads(text)
        source = f"memory:{kind}/{fingerprint}"
        check_envelope(
            header, source, kind=kind, schema_version=schema_version, fingerprint=fingerprint
        )
        meta = header["meta"]
        ref = ArtifactRef(kind, fingerprint, None, header["content_hash"], meta)
        arrays = {name: value.view() for name, value in frozen.items()}
        return LoadedArtifact(ref=ref, arrays=arrays, meta=meta)


#: Either backend; the stage DAG reads and writes through this interface.
Store = Union[ArtifactStore, MemoryArtifactStore]


@dataclass
class LoadedArtifact:
    """An artifact pulled from the store: payload plus provenance."""

    ref: ArtifactRef
    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any]
