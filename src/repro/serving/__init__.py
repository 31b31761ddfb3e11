"""``repro.serving`` — the online recommendation serving layer.

Treats a trained TAaMR system as a running service instead of a score
matrix.  There is one serving path, :mod:`repro.serving.sharded`: a
:class:`~repro.serving.sharded.SharedScorer` answers user-block requests
from precomputed item-side factors and re-derives only attacked
columns, :class:`TopNCache` keeps served lists hot with threshold-based
invalidation, :class:`RollingChrMonitor` watches served category
exposure, and a :class:`ShardRouter` fans requests and epoch-stamped
pushes out to shards — in process or across worker processes over
shared memory, with MostPop failover.

:class:`ShardedService` is the one facade over that stack:
:meth:`~ShardedService.from_pipeline` wires it to a
:class:`~repro.core.pipeline.TAaMRPipeline` (one in-process shard by
default; live feature pushes report an :class:`UpdateReport`, and
``stats()`` carries the rolling CHR); :mod:`~repro.serving.loadgen`
draws deterministic Zipf request streams to drive it.
"""

from .index import CacheStats, TopNCache
from .loadgen import ZipfLoadGenerator
from .screen import FeatureScreen, ScreenReport
from .sharded import (
    MostPopFallback,
    Shard,
    ShardedService,
    ShardRouter,
    UpdateReport,
)
from .sharded.shard import RollingChrMonitor

__all__ = [
    "TopNCache",
    "CacheStats",
    "RollingChrMonitor",
    "UpdateReport",
    "FeatureScreen",
    "ScreenReport",
    "ZipfLoadGenerator",
    "MostPopFallback",
    "Shard",
    "ShardRouter",
    "ShardedService",
]
