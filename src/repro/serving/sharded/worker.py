"""Worker processes and their RPC seam.

One shard lives in one worker process.  The protocol is deliberately
tiny: the router sends ``(op, seq, payload)`` tuples down a simplex
inbox pipe and the worker answers ``(seq, status, payload)`` up its
outbox pipe.  Every message in both directions is one plain
``pickle.dumps(..., HIGHEST_PROTOCOL)`` written with ``send_bytes`` and
read back by ``recv_bytes`` (:func:`_send_message` /
:func:`_recv_message`), each side on its own thread (no feeder threads).
A served top-N list crosses as a list of ints, which pickles in a third
of an ndarray's time; the router rebuilds the array.
Recommendation calls are synchronous (:meth:`ProcessShardHandle.call`),
or split into :meth:`~ProcessShardHandle.send` and
:meth:`~ProcessShardHandle.collect` so a batch reaches every shard
before the router waits for any; invalidation fan-out is asynchronous
(:meth:`ProcessShardHandle.cast` returns after sending, acks are
drained later by :meth:`flush`) so an attack push never blocks the
router behind one slow shard.

Each handle registers its outbox with one ``select.poll`` object at
start-up, so waiting for a reply sets up no selector per call.

Backpressure is explicit: a ``cast`` finding ``backlog`` acks
outstanding waits up to its timeout for one, then raises
:class:`ShardTimeout` (failover, not a hang).  A broken pipe, EOF or a
dead process raises ``ShardError(kind="WorkerDeath")``; as later
workers inherit earlier workers' pipe ends under ``fork``, EOF alone is
no death signal, so polls re-check the process and shutdown sends an
explicit ``"stop"``.

**No pipe deadlock.**  A writer blocks on a full 64 KiB pipe until the
reader drains it.  The worker writes while the router is not reading
only for ``update`` acks — small, at most ``backlog`` ≤
:data:`MAX_BACKLOG` of them — so they fit and the worker gets back to
its inbox: a large router send (``warm`` with raw scores) completes.
Large replies (``recommend_many``, ``warm``) only answer calls the
router collects before it sends anything else: a worker blocked on such
a reply blocks only itself, and the router reads it in turn.

:class:`LocalShardHandle` runs the identical shard in-process behind
the same interface, update acks included — it is what
``ShardedService.from_pipeline`` and the bitwise-equivalence tests
run on, and the process backend only adds transport.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import select
from typing import Dict, List, Optional

from ...telemetry import monotonic
from .race import ShmRaceError, ShmWriteSentinel
from .shard import Shard, ShardSpec

_DEFAULT_TIMEOUT_S = 30.0
#: Un-acked casts allowed per shard; their acks must fit in one pipe buffer.
MAX_BACKLOG = 128


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
    """The worker did not answer (or ack enough casts) within the deadline."""


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
# The wire: one pickle per message, both directions
# --------------------------------------------------------------------- #
def _send_message(conn, message) -> None:
    """Write one message; it is pickled whole before any byte is written."""
    conn.send_bytes(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))


def _recv_message(conn):
    """Read one message written by :func:`_send_message` (blocks)."""
    return pickle.loads(conn.recv_bytes())


# --------------------------------------------------------------------- #
# Worker-side loop
# --------------------------------------------------------------------- #
def _dispatch(shard: Shard, op: str, payload):
    if op == "ping":
        return {"shard_id": shard.shard_id, "users": int(shard.user_ids.size)}
    if op == "recommend":
        # A list of ints: what crosses the pipe (the router rebuilds it).
        return shard.recommend(payload["user"], n=payload.get("n")).tolist()
    if op == "recommend_many":
        return shard.recommend_many(payload["users"], n=payload.get("n"))
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
    if op == "stats":
        return shard.stats()
    raise ValueError(f"unknown shard op: {op!r}")


def shard_worker_main(spec: ShardSpec, inbox, outbox) -> None:
    """Entry point of a worker process: build the shard, serve the inbox."""
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
        _send_message(outbox, (0, "ok", {"shard_id": spec.shard_id}))
    except Exception as exc:  # construction failed: report, don't serve
        _send_message(outbox, (0, "error", _error_reply(spec.shard_id, "start", 0, exc)))
        return
    try:
        while True:
            try:
                op, seq, payload = _recv_message(inbox)
            except EOFError:  # every router end closed: nobody to serve
                return
            if op == "stop":
                return
            try:
                result = _dispatch(shard, op, payload)
                if sentinel is not None:
                    sentinel.verify(op=op, seq=seq)
            except Exception as exc:
                _send_message(
                    outbox, (seq, "error", _error_reply(shard.shard_id, op, seq, exc))
                )
            else:
                _send_message(outbox, (seq, "ok", result))
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
        if not 1 <= backlog <= MAX_BACKLOG:
            raise ValueError(f"backlog must be in [1, {MAX_BACKLOG}]")
        self.shard_id = spec.shard_id
        self.user_ids = spec.user_ids
        self.timeout_s = timeout_s
        self.backlog = backlog
        ctx = mp.get_context(start_method)
        worker_inbox, self._inbox = ctx.Pipe(duplex=False)
        self._outbox, worker_outbox = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(
            target=shard_worker_main,
            args=(spec, worker_inbox, worker_outbox),
            name=f"repro-shard-{spec.shard_id}",
            daemon=True,
        )
        self._proc.start()
        worker_inbox.close()
        worker_outbox.close()
        self._poller = select.poll()
        self._poller.register(self._outbox, select.POLLIN)
        self._seq = 0
        self._acks: Dict[int, tuple] = {}
        self._outstanding: set = set()
        seq, status, payload = self._recv(0, timeout_s)
        if status != "ok":
            self.stop()
            raise ShardError.from_reply(self.shard_id, payload, op="start")

    # -- low-level plumbing ------------------------------------------- #
    def _worker_death(self) -> ShardError:
        message = f"shard {self.shard_id}: worker died (exitcode={self._proc.exitcode})"
        return ShardError(message, shard_id=self.shard_id, kind="WorkerDeath")

    def _recv(self, want_seq: int, timeout_s: float):
        deadline = monotonic() + timeout_s
        while want_seq not in self._acks:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise ShardTimeout(
                    f"shard {self.shard_id}: no reply to seq {want_seq} "
                    f"within {timeout_s:.1f}s"
                )
            try:
                # Readable, hung up or closed: the read below tells which.
                if not self._poller.poll(1e3 * min(remaining, 0.5)):
                    if not self.alive():
                        raise self._worker_death()
                    continue
                seq, status, payload = _recv_message(self._outbox)
            except (EOFError, OSError) as exc:
                raise self._worker_death() from exc
            self._outstanding.discard(seq)
            self._acks[seq] = (seq, status, payload)
        return self._acks.pop(want_seq)

    # -- public API ---------------------------------------------------- #
    def call(self, op: str, payload=None, timeout_s: Optional[float] = None):
        """Synchronous request/reply."""
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        seq, status, result = self._recv(self.send(op, payload), timeout_s)
        if status != "ok":
            raise ShardError.from_reply(self.shard_id, result, op=op)
        return result

    def send(self, op: str, payload=None) -> int:
        """Send a request without waiting; :meth:`collect` the returned ticket.

        :meth:`call` split in two, so a caller can send to every shard
        before it waits for any and the workers run side by side.
        """
        seq = self._seq + 1
        try:
            _send_message(self._inbox, (op, seq, payload))
        except OSError as exc:  # BrokenPipeError, or a closed handle
            raise self._worker_death() from exc
        self._seq = seq
        self._outstanding.add(seq)
        return seq

    def collect(self, ticket: int, timeout_s: Optional[float] = None):
        """The reply to a :meth:`send` ticket (raises as :meth:`call` would)."""
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        seq, status, result = self._recv(ticket, timeout_s)
        if status != "ok":
            raise ShardError.from_reply(self.shard_id, result)
        return result

    def cast(self, op: str, payload=None, timeout_s: float = 1.0) -> int:
        """Send without waiting; the ack stays outstanding until :meth:`flush`.

        With ``backlog`` acks outstanding, first wait up to ``timeout_s``
        for the oldest, else raise :class:`ShardTimeout` (failover)."""
        if len(self._outstanding) >= self.backlog:
            oldest = min(self._outstanding)  # the worker replies in order
            self._acks[oldest] = self._recv(oldest, timeout_s)  # kept for flush
        return self.send(op, payload)

    def flush(self, timeout_s: Optional[float] = None):
        """Drain every un-drained ack; raise on the first shard error."""
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        results = []
        for seq in sorted(self._outstanding | self._acks.keys()):
            seq, status, payload = self._recv(seq, timeout_s)
            if status != "ok":
                raise ShardError.from_reply(self.shard_id, payload)
            results.append(payload)
        return results

    def alive(self) -> bool:
        return self._proc.is_alive()

    def stop(self, timeout_s: float = 5.0) -> None:
        """Send ``"stop"`` if the inbox has room, join, then terminate."""
        if self._inbox.closed:
            return
        try:
            if self.alive() and select.select([], [self._inbox], [], 1.0)[1]:
                _send_message(self._inbox, ("stop", self._seq + 1, None))
        except OSError:
            pass
        self._proc.join(timeout=timeout_s)
        # SIGTERM stays pending on a SIGSTOPped worker; SIGKILL does not.
        for end in (self._proc.terminate, self._proc.kill):
            if self._proc.is_alive():
                end()
                self._proc.join(timeout=timeout_s)
        self._inbox.close()
        self._outbox.close()


class LocalShardHandle:
    """Same interface, shard runs in the caller's process."""

    def __init__(self, shard: Shard, race_check: bool = False) -> None:
        self._shard = shard
        self.shard_id = self._shard.shard_id
        self.user_ids = self._shard.user_ids
        self._alive = True
        self._acks: List[Dict] = []
        self._ticket = 0
        self._replies: Dict[int, object] = {}
        self._sentinel = ShmWriteSentinel(shard.scorer.bank) if race_check else None

    @property
    def shard(self) -> Shard:
        return self._shard

    def call(self, op: str, payload=None, timeout_s: Optional[float] = None):
        if not self._alive:
            message = f"shard {self.shard_id}: handle stopped"
            raise ShardError(message, shard_id=self.shard_id, op=op, kind="HandleStopped")
        try:
            result = _dispatch(self._shard, op, payload)
            if self._sentinel is not None:
                self._sentinel.verify(op=op)
            return result
        except (ShardError, ShardTimeout, ShmRaceError):
            raise
        except Exception as exc:
            kind = type(exc).__name__
            message = f"shard {self.shard_id} op {op}: {kind}: {exc}"
            raise ShardError(message, shard_id=self.shard_id, op=op, kind=kind) from exc

    def send(self, op: str, payload=None) -> int:
        """Run the request now and keep its reply for :meth:`collect`."""
        self._ticket += 1
        self._replies[self._ticket] = self.call(op, payload)
        return self._ticket

    def collect(self, ticket: int, timeout_s: Optional[float] = None):
        """The reply kept for a :meth:`send` ticket."""
        return self._replies.pop(ticket)

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
