"""``repro.artifacts`` — content-addressed, versioned artifact store.

The single persistence layer of the repo: one envelope protocol
(:mod:`repro.artifacts.payload`) used by module weights, datasets,
recommender state and every experiment-stage output, plus the
content-addressed :class:`ArtifactStore` the stage DAG reads and
writes.
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
from .store import ArtifactRef, ArtifactStore, LoadedArtifact

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
    "ArtifactRef",
    "LoadedArtifact",
]
