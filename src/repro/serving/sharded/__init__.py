"""Sharded multi-worker serving tier.

Partitions the user universe across worker processes, each owning a
scorer + top-N cache slice, with the item-side scoring precompute
published once into shared memory (:mod:`repro.serving.sharded.shm`).
A :class:`ShardRouter` front-end hashes users to shards, fans
epoch-stamped invalidation pushes out asynchronously, fails dead shards
over to an attack-immune MostPop ranker, and aggregates cache/CHR
telemetry across the fleet.  :func:`build_synthetic_system` draws a
fitted ≥10⁵-user VBPR universe to drive it without a training run.
"""

from .driver import SYNTHETIC_CLASS_NAMES, build_synthetic_system
from .partition import UserPartition
from .race import (
    FaultInjectingHandle,
    ShmRaceError,
    ShmWriteSentinel,
    race_check_enabled,
)
from .router import MostPopFallback, ShardedService, ShardRouter
from .scorer import ITEM_SIDE_KINDS, SharedScorer, compute_item_side, item_side_kind
from .shard import Shard, ShardSpec, ShardUpdateReport
from .shm import (
    ArrayBank,
    SharedArrayBundle,
    SharedArraySpec,
    ShmManifest,
    attach_bundle,
    segment_exists,
)
from .worker import (
    LocalShardHandle,
    ProcessShardHandle,
    ShardError,
    ShardTimeout,
    shard_worker_main,
)

__all__ = [
    "ArrayBank",
    "FaultInjectingHandle",
    "ITEM_SIDE_KINDS",
    "LocalShardHandle",
    "MostPopFallback",
    "ProcessShardHandle",
    "SYNTHETIC_CLASS_NAMES",
    "Shard",
    "ShardError",
    "ShardRouter",
    "ShardSpec",
    "ShardTimeout",
    "ShardUpdateReport",
    "ShardedService",
    "SharedArrayBundle",
    "SharedArraySpec",
    "SharedScorer",
    "ShmManifest",
    "ShmRaceError",
    "ShmWriteSentinel",
    "UserPartition",
    "attach_bundle",
    "build_synthetic_system",
    "compute_item_side",
    "item_side_kind",
    "race_check_enabled",
    "segment_exists",
    "shard_worker_main",
]
