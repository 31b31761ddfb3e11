"""Worker processes and their RPC seam.

One shard lives in one worker process.  The protocol is deliberately
tiny: the router puts ``(op, seq, payload)`` tuples on a bounded inbox
queue, the worker answers ``(seq, status, payload)`` on its outbox.
Recommendation calls are synchronous (:meth:`ProcessShardHandle.call`);
invalidation fan-out is asynchronous (:meth:`ProcessShardHandle.cast`
returns after enqueueing, acks are drained later by :meth:`flush`) so
an attack push never blocks the router behind one slow shard.

Backpressure is explicit: the inbox is a ``Queue(maxsize=backlog)`` and
a ``cast`` that cannot enqueue within its timeout marks the shard as a
failover candidate instead of blocking forever.

:class:`LocalShardHandle` runs the identical shard in-process behind
the same interface, update acks included — it is what
:class:`~repro.serving.RecommenderService` and the bitwise-equivalence
tests run on, and the process backend only adds transport.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import time
from typing import Dict, List, Optional

import numpy as np

from ...rng import derive_rng
from ...telemetry import monotonic
from .race import ShmRaceError, ShmWriteSentinel
from .shard import Shard, ShardSpec

_DEFAULT_TIMEOUT_S = 30.0


class ShardError(RuntimeError):
    """The worker answered with an error (its shard raised).

    Typed protocol context rides along: which shard, which op, which
    sequence number, and the exception class that fired worker-side
    (``kind``) — so a caller can branch on what failed instead of
    parsing a stringified traceback out of the message.
    """

    def __init__(
        self,
        message: str,
        shard_id: Optional[int] = None,
        op: Optional[str] = None,
        seq: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.op = op
        self.seq = seq
        self.kind = kind

    @classmethod
    def from_reply(cls, shard_id: int, reply, op: Optional[str] = None) -> "ShardError":
        """Rebuild the typed error from a worker's error reply.

        Replies are structured dicts (see ``_error_reply``); a bare
        string still renders, for forward compatibility with anything
        replaying old captures.
        """
        seq = kind = None
        if isinstance(reply, dict):
            op = reply.get("op", op)
            seq = reply.get("seq")
            kind = reply.get("kind")
            detail = reply.get("message", "")
            if kind:
                detail = f"{kind}: {detail}"
        else:
            detail = str(reply)
        where = f"shard {shard_id}"
        if op is not None:
            where += f" op {op}"
        if seq is not None:
            where += f" (seq {seq})"
        return cls(f"{where}: {detail}", shard_id=shard_id, op=op, seq=seq, kind=kind)


class ShardTimeout(TimeoutError):
    """The worker did not answer (or enqueue) within the deadline."""


def _error_reply(shard_id: int, op: Optional[str], seq: int, exc: BaseException) -> Dict:
    """The wire form of a worker-side failure (picklable, typed)."""
    return {
        "shard_id": shard_id,
        "op": op,
        "seq": seq,
        "kind": type(exc).__name__,
        "message": str(exc),
    }


# --------------------------------------------------------------------- #
# Worker-side loop
# --------------------------------------------------------------------- #
def _run_phase(shard: Shard, payload: Dict) -> Dict:
    """Serve one benchmark phase inside the worker, returning latencies.

    Closed loop: issue requests back-to-back, latency is per-request
    service time.  Open loop: draw exponential inter-arrival gaps from
    the shard-derived RNG stream and measure latency against the
    *scheduled* arrival, so queueing delay shows up in the tail instead
    of being silently absorbed (coordinated omission).
    """
    users = np.asarray(payload["users"], dtype=np.int64)
    mode = payload.get("mode", "closed")
    n = payload.get("n")
    # Only meaningful for state-idempotent phases (steady-state cache
    # hits): each repeat replays the substream and the best wall wins,
    # washing out scheduler noise on sub-second walls.  Phases that
    # mutate state (cold fills, post-invalidation recomputes) must keep
    # the default of 1 or the second pass would measure a different
    # regime.
    repeats = int(payload.get("repeats", 1))
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    latencies = np.empty(users.size, dtype=np.float64)
    if mode == "closed":
        wall = None
        for _ in range(repeats):
            pass_latencies = np.empty(users.size, dtype=np.float64)
            wall_start = monotonic()
            for i, user in enumerate(users):
                started = monotonic()
                shard.recommend(int(user), n=n)
                pass_latencies[i] = monotonic() - started
            pass_wall = monotonic() - wall_start
            if wall is None or pass_wall < wall:
                wall = pass_wall
                latencies = pass_latencies
    elif mode == "open":
        rate = float(payload["rate_rps"])
        if rate <= 0:
            raise ValueError("open-loop mode needs a positive rate_rps")
        rng = derive_rng(int(payload.get("seed", 0)), f"openloop.shard{shard.shard_id}")
        gaps = rng.exponential(1.0 / rate, size=users.size)
        arrivals = np.cumsum(gaps)
        wall_start = monotonic()
        for i, user in enumerate(users):
            scheduled = wall_start + arrivals[i]
            now = monotonic()
            if now < scheduled:
                time.sleep(scheduled - now)
            shard.recommend(int(user), n=n)
            latencies[i] = monotonic() - scheduled
        wall = monotonic() - wall_start
    else:
        raise ValueError(f"unknown phase mode: {mode!r}")
    return {
        "requests": int(users.size),
        "wall_s": float(wall),
        "latencies_ms": (1e3 * latencies),
        "stats": shard.stats(),
    }


def _dispatch(shard: Shard, op: str, payload):
    if op == "ping":
        return {"shard_id": shard.shard_id, "users": int(shard.user_ids.size)}
    if op == "recommend":
        return shard.recommend(payload["user"], n=payload.get("n"))
    if op == "recommend_many":
        users = np.asarray(payload["users"], dtype=np.int64)
        n = payload.get("n")
        return [shard.recommend(int(user), n=n) for user in users]
    if op == "warm":
        if "manifest" in payload:
            # Scores published as a throwaway shm bundle: attach, slice
            # the owned rows (warm_start copies them), detach.
            from .shm import attach_bundle

            bank = attach_bundle(payload["manifest"])
            try:
                return shard.warm_start(
                    bank[payload.get("key", "scores")],
                    user_ids=payload.get("user_ids"),
                )
            finally:
                bank.close()
        return shard.warm_start(payload["scores"], user_ids=payload.get("user_ids"))
    if op == "update":
        report = shard.submit_update(
            payload["epoch"], payload["item_ids"], payload.get("item_features")
        )
        return report.as_dict()
    if op == "bench_phase":
        return _run_phase(shard, payload)
    if op == "stats":
        return shard.stats()
    raise ValueError(f"unknown shard op: {op!r}")


def shard_worker_main(spec: ShardSpec, inbox, outbox) -> None:
    """Entry point of a worker process: build the shard, serve the queue."""
    shard = None
    sentinel = None
    try:
        shard = Shard.from_spec(spec)
        if spec.race_check:
            # Race mode: CRC-stamp the attached segment once, re-verify
            # after every dispatched op, so any write to the shared item
            # side fails the op that exposed it (ShmRaceError in the
            # error reply) instead of a parity diff much later.
            sentinel = ShmWriteSentinel(shard.scorer.bank)
        outbox.put((0, "ok", {"shard_id": spec.shard_id}))
    except Exception as exc:  # construction failed: report, don't serve
        outbox.put((0, "error", _error_reply(spec.shard_id, "start", 0, exc)))
        return
    try:
        while True:
            op, seq, payload = inbox.get()
            if op == "stop":
                outbox.put((seq, "ok", None))
                return
            try:
                result = _dispatch(shard, op, payload)
                if sentinel is not None:
                    sentinel.verify(op=op, seq=seq)
            except Exception as exc:
                outbox.put((seq, "error", _error_reply(shard.shard_id, op, seq, exc)))
            else:
                outbox.put((seq, "ok", result))
    finally:
        if shard is not None:
            shard.close()


# --------------------------------------------------------------------- #
# Router-side handles
# --------------------------------------------------------------------- #
class ProcessShardHandle:
    """Router-side endpoint of one worker process."""

    def __init__(
        self,
        spec: ShardSpec,
        backlog: int = 64,
        start_method: str = "fork",
        timeout_s: float = _DEFAULT_TIMEOUT_S,
    ) -> None:
        self.shard_id = spec.shard_id
        self.user_ids = spec.user_ids
        self.timeout_s = timeout_s
        ctx = mp.get_context(start_method)
        self._inbox = ctx.Queue(maxsize=backlog)
        self._outbox = ctx.Queue()
        self._proc = ctx.Process(
            target=shard_worker_main,
            args=(spec, self._inbox, self._outbox),
            name=f"repro-shard-{spec.shard_id}",
            daemon=True,
        )
        self._proc.start()
        self._seq = 0
        self._acks: Dict[int, tuple] = {}
        self._outstanding: set = set()
        self._stopped = False
        seq, status, payload = self._recv(0, timeout_s)
        if status != "ok":
            self.stop()
            raise ShardError.from_reply(self.shard_id, payload, op="start")

    # -- low-level plumbing ------------------------------------------- #
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _recv(self, want_seq: int, timeout_s: float):
        deadline = monotonic() + timeout_s
        while True:
            if want_seq in self._acks:
                return self._acks.pop(want_seq)
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise ShardTimeout(
                    f"shard {self.shard_id}: no reply to seq {want_seq} "
                    f"within {timeout_s:.1f}s"
                )
            try:
                seq, status, payload = self._outbox.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                if not self.alive():
                    raise ShardError(
                        f"shard {self.shard_id}: worker died "
                        f"(exitcode={self._proc.exitcode})",
                        shard_id=self.shard_id,
                        kind="WorkerDeath",
                    ) from None
                continue
            self._outstanding.discard(seq)
            self._acks[seq] = (seq, status, payload)

    # -- public API ---------------------------------------------------- #
    def call(self, op: str, payload=None, timeout_s: Optional[float] = None):
        """Synchronous request/reply."""
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        seq = self._next_seq()
        try:
            self._inbox.put((op, seq, payload), timeout=timeout_s)
        except queue.Full:
            raise ShardTimeout(
                f"shard {self.shard_id}: inbox full for {timeout_s:.1f}s "
                f"(op={op})"
            ) from None
        self._outstanding.add(seq)
        seq, status, result = self._recv(seq, timeout_s)
        if status != "ok":
            raise ShardError.from_reply(self.shard_id, result, op=op)
        return result

    def cast(self, op: str, payload=None, timeout_s: float = 1.0) -> int:
        """Asynchronous send: enqueue and return the sequence number.

        The ack stays outstanding until :meth:`flush`.  A full inbox for
        longer than ``timeout_s`` raises :class:`ShardTimeout` — bounded
        backlog means a stuck shard surfaces as failover, not as an
        unbounded queue.
        """
        seq = self._next_seq()
        try:
            self._inbox.put((op, seq, payload), timeout=timeout_s)
        except queue.Full:
            raise ShardTimeout(
                f"shard {self.shard_id}: backlog full for {timeout_s:.1f}s "
                f"(op={op})"
            ) from None
        self._outstanding.add(seq)
        return seq

    def flush(self, timeout_s: Optional[float] = None):
        """Drain every outstanding ack; raise on the first shard error."""
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        results = []
        for seq in sorted(self._outstanding):
            seq, status, payload = self._recv(seq, timeout_s)
            if status != "ok":
                raise ShardError.from_reply(self.shard_id, payload)
            results.append(payload)
        return results

    def alive(self) -> bool:
        return self._proc.is_alive()

    def stop(self, timeout_s: float = 5.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._proc.is_alive():
            try:
                seq = self._next_seq()
                self._inbox.put(("stop", seq, None), timeout=1.0)
                self._proc.join(timeout=timeout_s)
            except (queue.Full, ValueError, OSError):
                pass
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=timeout_s)
        for q in (self._inbox, self._outbox):
            q.close()
            q.join_thread()


class LocalShardHandle:
    """Same interface, shard runs in the caller's process."""

    def __init__(self, shard: Shard, race_check: bool = False) -> None:
        self._shard = shard
        self.shard_id = self._shard.shard_id
        self.user_ids = self._shard.user_ids
        self._alive = True
        self._acks: List[Dict] = []
        self._sentinel = (
            ShmWriteSentinel(self._shard.scorer.bank) if race_check else None
        )

    @property
    def shard(self) -> Shard:
        return self._shard

    def call(self, op: str, payload=None, timeout_s: Optional[float] = None):
        if not self._alive:
            raise ShardError(
                f"shard {self.shard_id}: handle stopped",
                shard_id=self.shard_id,
                op=op,
                kind="HandleStopped",
            )
        try:
            result = _dispatch(self._shard, op, payload)
            if self._sentinel is not None:
                self._sentinel.verify(op=op)
            return result
        except (ShardError, ShardTimeout, ShmRaceError):
            raise
        except Exception as exc:
            raise ShardError(
                f"shard {self.shard_id} op {op}: {type(exc).__name__}: {exc}",
                shard_id=self.shard_id,
                op=op,
                kind=type(exc).__name__,
            ) from exc

    def cast(self, op: str, payload=None, timeout_s: float = 1.0) -> int:
        """Apply now; an ``update`` reply is kept as an ack for :meth:`flush`."""
        reply = self.call(op, payload)
        if op == "update":
            self._acks.append(reply)
        return 0

    def flush(self, timeout_s: Optional[float] = None):
        """Drain the update acks kept since the last flush."""
        acks, self._acks = self._acks, []
        return acks

    def alive(self) -> bool:
        return self._alive

    def stop(self, timeout_s: float = 5.0) -> None:
        if self._alive:
            self._alive = False
            self._shard.close()
