"""The single on-disk artifact protocol shared by every serialization path.

Historically the repo had three ways to persist trained state — module
``.npz`` archives (:mod:`repro.nn.serialization`), dataset archives
(:mod:`repro.data.serialization`) and ad-hoc recommender-state dicts in
``experiments/context.py`` — none of which recorded *what produced
them*.  A stale file silently deserialized into a fresh run.

This module defines one envelope all of them now share.  An artifact is
a plain ``.npz`` archive containing:

* ``__artifact__`` — a JSON header with the protocol version, the
  artifact ``kind``, a per-kind ``schema_version``, an optional
  producer ``fingerprint`` (hash of the config/inputs that built it),
  a ``content_hash`` over the payload arrays, and free-form ``meta``;
* the payload arrays under their own (non-dunder) names.

:func:`read_payload` *refuses* to load on any mismatch — missing
header, wrong kind, wrong schema version, wrong fingerprint
(:func:`check_envelope`, which the in-memory store runs too), or a
payload whose bytes no longer hash to the recorded ``content_hash`` —
instead of silently handing stale or corrupted state to the caller.
The arrays it returns are read-only, so no consumer can change a value
after its hash was checked.  No pickle is involved anywhere, so files
stay portable and safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import uuid
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

PROTOCOL_VERSION = 1
_HEADER_KEY = "__artifact__"


class ArtifactError(Exception):
    """Base class for every artifact load/store failure."""


class ArtifactMissingError(ArtifactError, FileNotFoundError):
    """The requested artifact file does not exist."""


class ArtifactSchemaError(ArtifactError, ValueError):
    """The file exists but its envelope is missing, foreign or outdated."""


class FingerprintMismatchError(ArtifactError, ValueError):
    """The artifact was produced under a different config fingerprint."""


class ArtifactIntegrityError(ArtifactError, ValueError):
    """The payload bytes no longer match the recorded content hash."""


def content_hash(arrays: Mapping[str, np.ndarray], meta: Optional[Dict[str, Any]] = None) -> str:
    """Deterministic sha256 over payload arrays (name, dtype, shape, bytes).

    ``meta`` participates too so that scalar results stored outside the
    arrays (e.g. a classifier accuracy) also invalidate downstream
    consumers when they change.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.tobytes())
    if meta:
        digest.update(json.dumps(meta, sort_keys=True, default=str).encode("utf-8"))
    return digest.hexdigest()


def envelope(
    kind: str,
    schema_version: int,
    arrays: Mapping[str, np.ndarray],
    fingerprint: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The JSON header recorded beside ``arrays``, ``content_hash`` included."""
    for name in arrays:
        if name.startswith("__"):
            raise ValueError(f"payload array name '{name}' is reserved")
    meta = dict(meta or {})
    return {
        "protocol": PROTOCOL_VERSION,
        "kind": kind,
        "schema_version": int(schema_version),
        "fingerprint": fingerprint,
        "content_hash": content_hash(arrays, meta),
        "meta": meta,
    }


def check_envelope(
    header: Mapping[str, Any],
    source: str,
    *,
    kind: str,
    schema_version: int,
    fingerprint: Optional[str] = None,
) -> None:
    """Refuse a header of another protocol, kind, schema version or fingerprint.

    ``source`` names the artifact in the error.  ``fingerprint=None``
    skips the fingerprint check (callers that key files by path only).
    """
    if header.get("protocol") != PROTOCOL_VERSION:
        raise ArtifactSchemaError(
            f"{source}: artifact protocol {header.get('protocol')} "
            f"(this build reads protocol {PROTOCOL_VERSION})"
        )
    if header["kind"] != kind:
        raise ArtifactSchemaError(
            f"{source}: artifact kind '{header['kind']}' (expected '{kind}')"
        )
    if header.get("schema_version") != int(schema_version):
        raise ArtifactSchemaError(
            f"{source}: schema version {header.get('schema_version')} for kind "
            f"'{kind}' (this build reads version {schema_version}); re-run the "
            "producing stage instead of loading stale state"
        )
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise FingerprintMismatchError(
            f"{source}: produced under fingerprint {header.get('fingerprint')}, "
            f"expected {fingerprint}; the config that built it differs from "
            "the current one"
        )


def write_payload(
    path: str,
    *,
    kind: str,
    schema_version: int,
    arrays: Mapping[str, np.ndarray],
    fingerprint: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Write one artifact; returns its payload ``content_hash``.

    The archive is written to a temporary file beside ``path`` and moved
    into place with :func:`os.replace`, so a run killed mid-write leaves
    either the previous file or none — never a truncated archive.  Like
    :func:`numpy.savez`, a ``path`` without the ``.npz`` suffix gets it
    appended.
    """
    header = envelope(kind, schema_version, arrays, fingerprint, meta)
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    # Writing through an open handle stops numpy appending ``.npz`` to
    # the temporary name.
    with _replacing(path, "xb") as stream:
        np.savez(stream, **{_HEADER_KEY: np.array(json.dumps(header))}, **dict(arrays))
    return header["content_hash"]


def write_json(path: str, payload: Any) -> None:
    """Write ``payload`` as indented, key-sorted JSON, atomically.

    Same temp-file-then-:func:`os.replace` discipline as
    :func:`write_payload`: a run killed mid-write keeps the previous
    file.  Values JSON cannot encode are written as their ``str()``.
    """
    with _replacing(os.fspath(path), "x") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)


@contextlib.contextmanager
def _replacing(path: str, mode: str):
    """Open a temporary file beside ``path``; move it onto ``path`` on success."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp_path = os.path.join(directory, f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp_path, mode, encoding=None if "b" in mode else "utf-8") as stream:
            yield stream
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp_path)
        raise


def read_header(path: str) -> Dict[str, Any]:
    """The JSON envelope of an artifact, without loading its payload."""
    with _open_archive(path) as archive:
        return _header(archive, path)


def _open_archive(path: str):
    """The open ``.npz`` archive at ``path``; refuses a missing file."""
    if not os.path.exists(path):
        raise ArtifactMissingError(f"no artifact at {path}")
    return np.load(path, allow_pickle=False)


def _header(archive, path: str) -> Dict[str, Any]:
    """The envelope of an open archive; refuses a missing or malformed one."""
    if _HEADER_KEY not in archive.files:
        raise ArtifactSchemaError(
            f"{path} has no artifact envelope (pre-protocol or foreign file); "
            "refusing to load unversioned state"
        )
    try:
        header = json.loads(str(archive[_HEADER_KEY]))
    except json.JSONDecodeError as error:
        raise ArtifactSchemaError(f"{path} has a corrupted envelope: {error}") from error
    if not isinstance(header, dict) or "kind" not in header:
        raise ArtifactSchemaError(f"{path} has a malformed artifact envelope")
    return header


def read_payload(
    path: str,
    *,
    kind: str,
    schema_version: int,
    fingerprint: Optional[str] = None,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any], str]:
    """Load one artifact, refusing on any mismatch.

    Returns ``(arrays, meta, content_hash)``; the arrays are read-only.
    ``fingerprint=None`` skips the fingerprint check (callers that key
    files by path only).  The archive is opened once: the envelope is
    checked before any payload array is read.
    """
    with _open_archive(path) as archive:
        header = _header(archive, path)
        check_envelope(
            header, path, kind=kind, schema_version=schema_version, fingerprint=fingerprint
        )
        arrays = {name: archive[name] for name in archive.files if name != _HEADER_KEY}
    meta = dict(header.get("meta") or {})
    recorded = header.get("content_hash")
    actual = content_hash(arrays, meta)
    if actual != recorded:
        raise ArtifactIntegrityError(
            f"{path}: payload hash {actual[:12]} does not match the "
            f"recorded {str(recorded)[:12]} (file corrupted or edited)"
        )
    for value in arrays.values():
        value.setflags(write=False)
    return arrays, meta, str(recorded)
