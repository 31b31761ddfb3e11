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

:class:`RecommenderService` is that stack with one in-process shard,
wired to a :class:`~repro.core.pipeline.TAaMRPipeline` (live feature
pushes + rolling CHR monitoring); :mod:`~repro.serving.loadgen`
draws deterministic Zipf request streams to drive either.
"""

from .index import CacheStats, TopNCache
from .loadgen import ZipfLoadGenerator
from .screen import FeatureScreen, ScreenReport
from .service import RecommenderService, UpdateReport
from .sharded import (
    MostPopFallback,
    Shard,
    ShardedService,
    ShardRouter,
)
from .sharded.shard import RollingChrMonitor

__all__ = [
    "TopNCache",
    "CacheStats",
    "RecommenderService",
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
