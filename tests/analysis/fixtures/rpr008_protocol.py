"""RPR008 fixture — RPC protocol drift between callers and _dispatch.

Never imported; parsed by the lint self-tests.  The rule rebuilds both
sides of the ``(op, seq, payload)`` protocol from this file alone: the
handler table from ``_dispatch``/``shard_worker_main`` and the op
constructions from ``call``/``cast`` sites and raw wire tuples passed to
``send``/``put``.
"""


def _dispatch(shard, op, payload):
    if op == "recommend":
        return shard.recommend(payload["user"], payload["n"])
    if op == "warm":  # VIOLATION: dead handler, no call site constructs it
        return shard.warm_start(payload["scores"])
    if op == "update":
        epoch = payload["epoch"]  # VIOLATION: no call site sets "epoch"
        if "features" in payload:
            shard.update(epoch, payload["features"])
        return epoch
    raise ValueError(op)


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
