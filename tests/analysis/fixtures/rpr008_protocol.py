"""RPR008 fixture — RPC protocol drift between callers and _dispatch.

Never imported; parsed by the lint self-tests.  The rule rebuilds both
sides of the ``(op, seq, payload)`` protocol from this file alone: the
handler table from ``_dispatch``/``shard_worker_main`` and the op
constructions from ``call``/``cast``/``send`` sites and raw wire tuples
passed to ``send``/``put`` or to a helper that sends what it is given.
"""

import pickle


def _dispatch(shard, op, payload):
    if op == "recommend":
        return shard.recommend(payload["user"], payload["n"])
    if op == "warm":  # VIOLATION: dead handler, no call site constructs it
        return shard.warm_start(payload["scores"])
    if op == "recommend_many":
        # Kept alive, keys and all, only by split sends inside fan-out lambdas.
        return [shard.recommend(user, payload.get("n")) for user in payload["users"]]
    if op == "reset":
        return shard.reset(payload["reason"])  # VIOLATION: no fan-out payload sets "reason"
    if op == "ping":
        return shard.shard_id
    if op == "drain":
        # Kept alive only by a wire tuple handed to the send helper.
        deadline = payload["deadline"]
        return shard.drain(deadline, payload["budget"])  # VIOLATION: no call site sets "budget"
    if op == "update":
        epoch = payload["epoch"]  # VIOLATION: no call site sets "epoch"
        if "features" in payload:
            shard.update(epoch, payload["features"])
        return epoch
    raise ValueError(op)


def _send_message(conn, message):
    conn.send_bytes(pickle.dumps(message))


def shard_worker_main(spec, inbox, outbox):
    shard = spec.build()
    while True:
        op, seq, payload = inbox.get()
        if op == "stop":
            break
        outbox.put((op, seq, _dispatch(shard, op, payload)))


class Handle:
    def request(self, user):
        # Dict-literal payload: both mandatory keys present.
        return self.call("recommend", {"user": user, "n": 10})

    def push(self, items):
        # Local-name payload, resolved through the assignment and the
        # later subscript store — neither sets "epoch".
        payload = {"items": items}
        payload["extra"] = 1
        return self.cast("update", payload)

    def typo(self):
        return self.call("recomend", {"user": 1})  # VIOLATION: unknown op

    def shutdown(self):
        # Raw wire tuple over a pipe: keeps the "stop" handler alive.
        self.inbox.send(("stop", 0, None))

    def legacy_shutdown(self):
        self.inbox.put(("halt", 0, None))  # VIOLATION: raw put tuple, unknown op

    def piped_typo(self):
        self.inbox.send(("recomend", 1, {"user": 1}))  # VIOLATION: unknown op

    def drain(self):
        # The helper sends its message argument: a raw wire tuple too.
        _send_message(self.inbox, ("drain", 0, {"deadline": 1.0}))

    def helper_typo(self):
        _send_message(self.inbox, ("stpo", 0, None))  # VIOLATION: unknown op


class Router:
    def _fan_out(self, sends):
        # Send-all-then-collect: each value is a split send, op at the site.
        tickets = {shard: send(self.handles[shard]) for shard, send in sends.items()}
        return {shard: self.handles[shard].collect(t) for shard, t in tickets.items()}

    def batch(self, groups):
        sends = {
            shard: lambda handle, users=users: handle.send(
                "recommend_many", {"users": users, "n": 10}
            )
            for shard, users in groups.items()
        }
        return self._fan_out(sends)

    def probe(self, shards):
        return self._fan_out({shard: lambda h: h.send("ping", None) for shard in shards})

    def reset_all(self, shards):
        return self._fan_out({s: lambda h: h.send("reset", {"why": "attack"}) for s in shards})

    def stats_typo(self):
        return self._fan_out({0: lambda h: h.send("stat", None)})  # VIOLATION: unknown op

    def split_typo(self, handle):
        ticket = handle.send("recomend_many", {"users": [1]})  # VIOLATION: unknown op
        return handle.collect(ticket)
