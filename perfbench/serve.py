"""Serving workloads: a 2-worker fleet driven by one closed-loop client.

``serve_read`` replays a Zipf 0.9 stream against a fleet whose cache was
filled by one cold pass during set-up, so nearly every request is a
cache hit and the RPC hop (routing, queue transit, dispatch, reply)
dominates.  ``serve_churn`` serves the same stream with an attack push
(``push_item_features`` on a few items) every ``push_every`` requests,
each flushed before the next request, so the write path (epoch apply,
``score_items``, cache invalidation, cold recomputes) runs beside reads.

Pushed items come from a fixed pool that is pushed once during set-up:
the shards' feature overlay holds exactly the pool from the first
measured request on, well below the scorer's dense-escalation
threshold, so every run serves the same regime however long it lasts.

The pool is drawn from a band of mid-popular items (``POOL_BAND`` of the
catalogue, ranked by mean clean score): each sits in a few users' lists,
so every push invalidates a few percent of them.  A pool drawn from the
whole catalogue catches an item that heads most lists every few pushes;
such a push invalidates up to three quarters of the cache, and the
heavy tail made the run median depend on which pushes a seed drew.
"""

from __future__ import annotations

import multiprocessing as mp
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import EchoPeer, HostSpeed, WorkloadResult, process_peak_rss_mb, self_peak_rss_mb
from layers import Patches, SharedCounters, perf_counter

WORKERS = 2
FULL = dict(
    users=100_000,
    items=2000,
    feature_dim=64,
    top_n=20,
    zipf=0.9,
    stream=6000,
    block=1000,
    sample_every=50,
    push_every=1000,
    push_items=4,
    pool=128,
    trace_requests=6000,
    setup_repeats=3,
)
TINY = dict(
    users=2000,
    items=300,
    feature_dim=32,
    top_n=20,
    zipf=0.9,
    stream=2000,
    block=200,
    sample_every=10,
    push_every=100,
    push_items=4,
    pool=32,
    trace_requests=600,
    setup_repeats=2,
)
PUSH_NOISE = 0.1
#: Pool band as shares of the catalogue ranked by mean clean score.
POOL_BAND = (0.05, 0.30)
#: Users whose mean score ranks the items for the pool band.
POOL_RANK_USERS = 2000
COLD_FILL_BATCH = 512
TIE_TOLERANCE = 1e-9

FIELDS = (
    "call_recommend_s",
    "call_recommend_n",
    "dispatch_recommend_s",
    "dispatch_recommend_n",
    "shard_recommend_s",
    "score_block_s",
    "score_block_n",
    "submit_update_s",
    "submit_update_n",
    "invalidated_users",
)


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


#: The synthetic VBPR universe and the attacker's item pool are pinned:
#: how many cached lists a push invalidates depends on how popular the
#: pushed items are under the model, so a per-seed model would measure
#: the draw, not the code.  The request stream and every push's items and
#: features come from the benchmark seed.
SYSTEM_SEED = 0


class Inputs:
    """Everything the fleet serves, derived from the benchmark seed."""

    def __init__(self, settings: Dict, seed: int) -> None:
        from repro.rng import derive_rng
        from repro.serving.loadgen import ZipfLoadGenerator

        self.settings = settings
        self.seed = seed
        self.stream = ZipfLoadGenerator(
            settings["users"], exponent=settings["zipf"], seed=seed, stream="perfbench.requests"
        ).sample(settings["stream"])
        self.cold_users = np.unique(self.stream)
        self.pool: Optional[np.ndarray] = None

    def choose_pool(self, model) -> None:
        """Draw the attacker's pool from the mid-popular band (pinned)."""
        from repro.rng import derive_rng

        if self.pool is not None:
            return
        settings = self.settings
        users = derive_rng(SYSTEM_SEED, "perfbench.pool.users").choice(
            settings["users"], size=min(POOL_RANK_USERS, settings["users"]), replace=False
        )
        by_mean_score = np.argsort(-model.score_users(users).mean(axis=0), kind="stable")
        low, high = (int(share * settings["items"]) for share in POOL_BAND)
        self.pool = np.sort(
            derive_rng(SYSTEM_SEED, "perfbench.pool").choice(
                by_mean_score[low:high], size=settings["pool"], replace=False
            )
        )

    def system(self):
        from repro.serving.sharded.driver import build_synthetic_system

        settings = self.settings
        return build_synthetic_system(
            settings["users"], settings["items"], feature_dim=settings["feature_dim"], seed=SYSTEM_SEED
        )

    def push(self, clean: np.ndarray, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Push ``index`` (0 = the whole pool, pushed during set-up)."""
        from repro.rng import derive_rng

        rng = derive_rng(self.seed, f"perfbench.push.{index}")
        items = (
            self.pool
            if index == 0
            else np.sort(rng.choice(self.pool, size=self.settings["push_items"], replace=False))
        )
        return items, clean[items] + rng.normal(0.0, PUSH_NOISE, (items.size, clean.shape[1]))


class Fleet:
    """One built fleet plus the client-side mirror of its item features."""

    def __init__(self, inputs: Inputs, churn: bool) -> None:
        from repro.serving.sharded.router import ShardedService

        model, item_classes, class_names, counts = inputs.system()
        self.model = model
        others = {child.pid for child in mp.active_children()}
        self.service = ShardedService.build(
            model,
            num_shards=WORKERS,
            backend="process",
            item_classes=item_classes,
            class_names=class_names,
            fallback_counts=counts,
            n=inputs.settings["top_n"],
        )
        self.segment = self.service.segment_name
        self.router = self.service.router
        self.clean = np.array(model.features, dtype=np.float64)
        self.features = self.clean.copy()
        self.pushes: List[Tuple[np.ndarray, np.ndarray]] = []
        if churn:
            inputs.choose_pool(model)
            items, features = inputs.push(self.clean, 0)
            self.router.push_item_features(items, features)
            self.router.flush()
            self.features[items] = features
        users = inputs.cold_users
        for start in range(0, users.size, COLD_FILL_BATCH):
            self.router.recommend_batch(users[start : start + COLD_FILL_BATCH])
        self.worker_pids = [
            child.pid for child in mp.active_children() if child.pid not in others
        ]

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb() + sum(process_peak_rss_mb(pid) for pid in self.worker_pids)

    def close(self) -> bool:
        """Stop the workers; True when the shm segment outlived them."""
        from repro.serving.sharded.shm import segment_exists

        self.service.close()
        return self.segment is not None and segment_exists(self.segment)


# --------------------------------------------------------------------- #
# The closed-loop client
# --------------------------------------------------------------------- #


class Client:
    """One client: the next request goes out only after the last reply."""

    def __init__(self, fleet: Fleet, inputs: Inputs, churn: bool, result: WorkloadResult):
        self.fleet = fleet
        self.inputs = inputs
        self.churn = churn
        self.result = result
        self.latencies: List[float] = []
        self.blocks: List[float] = []
        #: Per block: seconds at the reference host speed per raw second.
        self.block_scales: List[float] = []
        self.push_times: List[float] = []
        self.samples: List[Tuple[int, int, np.ndarray]] = []
        self.index = 0
        self.fallback_before = fleet.router.fallback_requests
        # Under churn a block is one push plus the requests up to the next.
        settings = inputs.settings
        self.block = settings["push_every"] if churn else settings["block"]

    def _push(self) -> None:
        router = self.fleet.router
        index = len(self.fleet.pushes) + 1
        items, features = self.inputs.push(self.fleet.clean, index)
        self.result.attempted += 1
        start = perf_counter()
        epoch = router.push_item_features(items, features)
        reports = router.flush()
        self.push_times.append(perf_counter() - start)
        self.fleet.pushes.append((items, features))
        acked = sum(epoch in report.get("applied_epochs", ()) for report in reports)
        if acked != WORKERS:
            self.result.fail(1, f"push {index}: {acked}/{WORKERS} shards applied epoch {epoch}")

    def run(
        self,
        seconds: Optional[float] = None,
        requests: Optional[int] = None,
        speed: Optional[HostSpeed] = None,
    ) -> float:
        """Serve until ``requests`` are done or, at a block boundary, the
        time is up; returns the wall of the whole pass.  With ``speed``,
        the host is probed between blocks (outside their walls)."""
        settings = self.inputs.settings
        stream, block = self.inputs.stream, self.block
        push_every, sample_every = settings["push_every"], settings["sample_every"]
        recommend = self.fleet.router.recommend
        latencies, result = self.latencies, self.result
        deadline = None if seconds is None else perf_counter() + seconds
        done = 0
        before = speed.probe() if speed is not None else None
        start = block_start = perf_counter()
        while True:
            if requests is not None and done >= requests:
                break
            if deadline is not None and done % block == 0 and done and perf_counter() >= deadline:
                break
            index = self.index
            if self.churn and index and index % push_every == 0:
                self._push()
            user = int(stream[index % stream.size])
            began = perf_counter()
            try:
                served = recommend(user)
            except Exception as exc:  # counted, and the loop goes on
                served = None
                result.fail(1, f"request {index} (user {user}): {type(exc).__name__}: {exc}")
            latencies.append(perf_counter() - began)
            if served is not None and index % sample_every == 0:
                self.samples.append((user, len(self.fleet.pushes), served))
            self.index += 1
            done += 1
            if done % block == 0:
                self.blocks.append(perf_counter() - block_start)
                if speed is not None:
                    after = speed.probe()
                    self.block_scales.append(speed.scale(1.0, before, after))
                    before = after
                block_start = perf_counter()
        wall = perf_counter() - start
        result.attempted += done
        fallbacks = self.fleet.router.fallback_requests - self.fallback_before
        if fallbacks:
            result.fail(fallbacks, f"{fallbacks} request(s) served by the MostPop fallback")
        self.fallback_before = self.fleet.router.fallback_requests
        return wall

    def check_samples(self) -> None:
        """Sampled lists must equal brute-force top-N from VBPR scoring
        over the features the fleet had when the request was served."""
        fleet, top_n = self.fleet, self.inputs.settings["top_n"]
        features = fleet.features.copy()
        applied = 0
        by_version: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for user, version, served in self.samples:
            by_version.setdefault(version, []).append((user, served))
        wrong = 0
        for version in sorted(by_version):
            while applied < version:
                items, pushed = fleet.pushes[applied]
                features[items] = pushed
                applied += 1
            group = by_version[version]
            scores = fleet.model.score_users([u for u, _ in group], features=features)
            for row, (_, served) in zip(scores, group):
                expected = np.argsort(-row, kind="stable")[:top_n]
                served = np.asarray(served, dtype=np.int64)
                if served.shape != expected.shape or not (
                    np.array_equal(served, expected)
                    or np.allclose(row[served], row[expected], rtol=0.0, atol=TIE_TOLERANCE)
                ):
                    wrong += 1
        if wrong:
            self.result.fail(wrong, f"{wrong} sampled list(s) differ from brute-force top-N")
        self.samples.clear()


# --------------------------------------------------------------------- #
# Layer wrappers (installed before the fleet forks)
# --------------------------------------------------------------------- #


def install_layers(counters: SharedCounters) -> Patches:
    from repro.serving.sharded import worker
    from repro.serving.sharded.scorer import SharedScorer
    from repro.serving.sharded.shard import Shard
    from repro.serving.sharded.worker import ProcessShardHandle

    values, column = counters.values, counters.column
    patches = Patches()

    def add(row: int, field: str, amount: float) -> None:
        values[row, column[field]] += amount

    def claim_slot(func):
        def from_spec(cls, spec):
            counters.slot = spec.shard_id  # runs inside the worker process
            return func(cls, spec)

        return from_spec

    def call(func):
        def timed(self, op, payload=None, timeout_s=None):
            start = perf_counter()
            try:
                return func(self, op, payload, timeout_s)
            finally:
                if op == "recommend":
                    add(counters.slot, "call_recommend_s", perf_counter() - start)
                    add(counters.slot, "call_recommend_n", 1)

        return timed

    def dispatch(func):
        def timed(shard, op, payload):
            start = perf_counter()
            try:
                return func(shard, op, payload)
            finally:
                if op == "recommend":
                    add(shard.shard_id, "dispatch_recommend_s", perf_counter() - start)
                    add(shard.shard_id, "dispatch_recommend_n", 1)

        return timed

    def shard_recommend(func):
        def timed(self, user, n=None):
            start = perf_counter()
            try:
                return func(self, user, n)
            finally:
                add(self.shard_id, "shard_recommend_s", perf_counter() - start)

        return timed

    def score_block(func):
        def timed(self, user_ids):
            start = perf_counter()
            try:
                return func(self, user_ids)
            finally:
                add(counters.slot, "score_block_s", perf_counter() - start)
                add(counters.slot, "score_block_n", 1)

        return timed

    def submit_update(func):
        def timed(self, epoch, item_ids, item_features):
            start = perf_counter()
            report = func(self, epoch, item_ids, item_features)
            add(self.shard_id, "submit_update_s", perf_counter() - start)
            add(self.shard_id, "submit_update_n", 1)
            add(self.shard_id, "invalidated_users", report.invalidated_users)
            return report

        return timed

    patches.swap(Shard, "from_spec", claim_slot)
    patches.swap(ProcessShardHandle, "call", call)
    patches.swap(worker, "_dispatch", dispatch)
    patches.swap(Shard, "recommend", shard_recommend)
    patches.swap(SharedScorer, "score_block", score_block)
    patches.swap(Shard, "submit_update", submit_update)
    return patches


def layer_metrics(
    counters: SharedCounters,
    traced: Client,
    wall: float,
    stats_before: Dict,
    stats_after: Dict,
) -> Dict[str, float]:
    workers = range(WORKERS)
    requests = len(traced.latencies)
    request_s = float(np.sum(traced.latencies))
    push_s = float(np.sum(traced.push_times))
    call_s = counters.total("call_recommend_s")
    dispatch_s = counters.total("dispatch_recommend_s", workers)
    shard_s = counters.total("shard_recommend_s", workers)
    score_n = counters.total("score_block_n", workers)
    update_n = counters.total("submit_update_n", workers)
    cache_before, cache_after = stats_before["cache"], stats_after["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    unattributed = wall - request_s - push_s
    return {
        "serving.router.self_ms": 1e3 * (request_s - call_s) / requests,
        "serving.rpc.ms": 1e3 * (call_s - dispatch_s) / requests,
        "serving.worker.dispatch_ms": 1e3 * (dispatch_s - shard_s) / requests,
        "serving.shard.recommend_ms": 1e3 * shard_s / requests,
        "serving.index.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serving.scorer.score_block_calls": score_n,
        "serving.scorer.score_block_ms": (
            1e3 * counters.total("score_block_s", workers) / score_n if score_n else 0.0
        ),
        "serving.update.apply_ms": (
            1e3 * counters.total("submit_update_s", workers) / update_n if update_n else 0.0
        ),
        "serving.update.invalidated_users": counters.total("invalidated_users", workers),
        "serving.scorer.escalated": sum(bool(s["escalated"]) for s in stats_after["per_shard"]),
        "unattributed_s": unattributed,
        "unattributed_frac": unattributed / wall,
    }


# --------------------------------------------------------------------- #
# Workload drivers
# --------------------------------------------------------------------- #


def _setup(
    inputs: Inputs, churn: bool, result: WorkloadResult, repeats: int, speed: HostSpeed
) -> Fleet:
    """Set up ``repeats`` times (``setup_s`` is the median); keep the last."""
    setups, fleet = [], None
    for _ in range(repeats):
        if fleet is not None:
            _close(fleet, result)
        fleet, _, scaled = speed.timed(lambda: Fleet(inputs, churn))
        setups.append(scaled)
    result.samples["setup_s"] = setups
    result.metrics["setup_s"] = median(setups)
    return fleet


def _close(fleet: Fleet, result: WorkloadResult) -> None:
    if fleet.close():
        result.fail(1, f"shm segment {fleet.segment} leaked past close()")
        result.layers["serving.shm_leaked"] = result.layers.get("serving.shm_leaked", 0) + 1


def run_serving(
    seed: int, seconds: float, trace: bool, tiny: bool, churn: bool
) -> WorkloadResult:
    settings = TINY if tiny else FULL
    inputs = Inputs(settings, seed)
    result = WorkloadResult()
    result.layers["serving.shm_leaked"] = 0
    peer = EchoPeer()
    try:
        return _serve(inputs, result, HostSpeed(peer), seconds, trace, churn)
    finally:
        peer.close()


def _serve(
    inputs: Inputs, result: WorkloadResult, speed: HostSpeed, seconds: float, trace: bool, churn: bool
) -> WorkloadResult:
    settings = inputs.settings
    # Set-up is compute (model build, fork, cold fill): the compute probe.
    fleet: Optional[Fleet] = _setup(inputs, churn, result, settings["setup_repeats"], HostSpeed())
    try:
        client = Client(fleet, inputs, churn, result)
        if not trace:
            # Lead-in: one pass over the stream, untimed, so the measured
            # blocks see the steady mix of hits and invalidated lists.
            client.run(requests=settings["stream"])
            for series in (client.latencies, client.blocks, client.push_times):
                series.clear()
            client.run(seconds=seconds, speed=speed)
            block = client.block
            blocks = [wall * k for wall, k in zip(client.blocks, client.block_scales)]
            block_p50s = [
                1e3 * k * median(client.latencies[i * block : (i + 1) * block])
                for i, k in enumerate(client.block_scales)
            ]
            result.samples.update(
                wall_s=blocks,
                throughput_per_s=[block / wall for wall in blocks],
                latency_p50_ms=block_p50s,
            )
            result.metrics.update(
                wall_s=median(blocks),
                throughput_per_s=block / median(blocks),
                latency_p50_ms=median(block_p50s),
                peak_rss_mb=fleet.peak_rss_mb(),
            )
            client.check_samples()
            return result

        # Traced mode: the same fixed pass twice from the same state,
        # first on the untraced fleet, then on a fleet built under the
        # layer wrappers (worker-side ones must exist before the fork).
        untraced_wall = client.run(requests=settings["trace_requests"])
        client.check_samples()
        latencies = np.asarray(client.latencies)
        result.layers.update(
            {
                "serving.latency_p99_ms": 1e3 * float(np.percentile(latencies, 99)),
                "serving.latency_samples": latencies.size,
                "serving.push_apply_ms": (
                    1e3 * median(client.push_times) if client.push_times else 0.0
                ),
            }
        )
        _close(fleet, result)
        fleet = None

        counters = SharedCounters(WORKERS + 1, FIELDS)
        patches = install_layers(counters)
        try:
            fleet = Fleet(inputs, churn)
            counters.reset()  # set-up traffic is not part of the pass
            traced = Client(fleet, inputs, churn, result)
            before = fleet.router.stats()
            wall = traced.run(requests=settings["trace_requests"])
            after = fleet.router.stats()
            traced.check_samples()
            result.layers.update(layer_metrics(counters, traced, wall, before, after))
            result.layers["trace_overhead_frac"] = wall / untraced_wall - 1.0
            result.layers["serving.fallback_requests"] = fleet.router.fallback_requests
            _close(fleet, result)
            fleet = None
        finally:
            patches.restore()
            if fleet is not None:
                _close(fleet, result)
                fleet = None
            counters.close()
        return result
    finally:
        if fleet is not None:
            _close(fleet, result)
