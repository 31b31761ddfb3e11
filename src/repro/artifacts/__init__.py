"""``repro.artifacts`` — content-addressed, versioned artifact store.

The single persistence layer of the repo: one envelope protocol
(:mod:`repro.artifacts.payload`) used by module weights, datasets,
recommender state and every experiment-stage output, plus the
content-addressed stores the stage DAG reads and writes: the on-disk
:class:`ArtifactStore` and the in-process :class:`MemoryArtifactStore`.
"""

from .payload import (
    PROTOCOL_VERSION,
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactMissingError,
    ArtifactSchemaError,
    FingerprintMismatchError,
    content_hash,
    read_header,
    read_payload,
    write_json,
    write_payload,
)
from .store import ArtifactRef, ArtifactStore, LoadedArtifact, MemoryArtifactStore, Store

__all__ = [
    "PROTOCOL_VERSION",
    "ArtifactError",
    "ArtifactMissingError",
    "ArtifactSchemaError",
    "FingerprintMismatchError",
    "ArtifactIntegrityError",
    "content_hash",
    "read_header",
    "read_payload",
    "write_payload",
    "write_json",
    "ArtifactStore",
    "MemoryArtifactStore",
    "Store",
    "ArtifactRef",
    "LoadedArtifact",
]
