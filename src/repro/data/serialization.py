"""Dataset persistence on the shared artifact protocol.

Rendering tens of thousands of images and sampling interactions is the
slowest part of large-scale runs; persisting the assembled dataset lets
benchmark sessions and notebooks reload it instantly.  The format is a
single ``.npz`` archive in the :mod:`repro.artifacts` envelope —
schema-version stamp, optional config fingerprint, payload content
hash — so loading refuses foreign, outdated or corrupted files.  It is
written uncompressed; compressed archives from older versions still
load.
No pickle, so files are portable across Python versions and safe to
share.

:func:`pack_dataset` / :func:`unpack_dataset` expose the raw
array-payload codec so the experiment stage DAG can route the same
format through its content-addressed store.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..artifacts.payload import read_payload, write_payload
from .categories import CategoryRegistry
from .datasets import MultimediaDataset
from .interactions import ImplicitFeedback

DATASET_KIND = "dataset"
DATASET_SCHEMA = 2  # v1 was the pre-envelope plain .npz layout


def pack_dataset(dataset: MultimediaDataset) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Split a dataset into the artifact payload ``(arrays, meta)``."""
    offsets = np.cumsum([0] + [len(items) for items in dataset.feedback.train_items])
    flat_train = (
        np.concatenate(dataset.feedback.train_items)
        if dataset.feedback.num_train_interactions
        else np.zeros(0, dtype=np.int64)
    )
    registry_spec = [
        [category.name, category.popularity, category.semantic_group]
        for category in dataset.registry
    ]
    arrays = {
        "item_categories": dataset.item_categories,
        "images": dataset.images,
        "train_offsets": offsets,
        "train_flat": flat_train,
        "test_items": dataset.feedback.test_items,
    }
    meta = {"name": dataset.name, "registry": json.dumps(registry_spec)}
    return arrays, meta


def unpack_dataset(arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> MultimediaDataset:
    """Rebuild a dataset from its artifact payload."""
    registry_spec = json.loads(meta["registry"])
    registry = CategoryRegistry(
        tuple((name, float(pop), group) for name, pop, group in registry_spec)
    )
    offsets = arrays["train_offsets"]
    flat = arrays["train_flat"]
    train_items: List[np.ndarray] = [
        flat[offsets[idx] : offsets[idx + 1]].astype(np.int64)
        for idx in range(len(offsets) - 1)
    ]
    feedback = ImplicitFeedback(
        num_users=len(train_items),
        num_items=int(arrays["item_categories"].shape[0]),
        train_items=train_items,
        test_items=arrays["test_items"].astype(np.int64),
    )
    return MultimediaDataset(
        name=str(meta["name"]),
        registry=registry,
        item_categories=arrays["item_categories"].astype(np.int64),
        # A freshly packed dataset keeps its own pixels; a loaded one gets
        # an owned copy rather than a view into the archive's read buffer
        # (attacking such a view measured ~4% slower).
        images=np.require(arrays["images"], np.float64, ["OWNDATA"]),
        feedback=feedback,
    )


def save_dataset(
    dataset: MultimediaDataset, path: str, fingerprint: Optional[str] = None
) -> str:
    """Write ``dataset`` to ``path``; returns the payload content hash."""
    arrays, meta = pack_dataset(dataset)
    return write_payload(
        path,
        kind=DATASET_KIND,
        schema_version=DATASET_SCHEMA,
        arrays=arrays,
        fingerprint=fingerprint,
        meta=meta,
    )


def load_dataset(path: str, fingerprint: Optional[str] = None) -> MultimediaDataset:
    """Load a dataset written by :func:`save_dataset`.

    Refuses files without the artifact envelope, with a different
    schema version, or (when ``fingerprint`` is given) produced by a
    different config.
    """
    arrays, meta, _ = read_payload(
        path,
        kind=DATASET_KIND,
        schema_version=DATASET_SCHEMA,
        fingerprint=fingerprint,
    )
    return unpack_dataset(arrays, meta)
