"""RPR010 fixture — queue/lock hygiene in the serving tier.

Never imported; parsed by the lint self-tests.  Queues, pipe ends and
locks are recognised by the serving tier's naming conventions
(``inbox``/``outbox``/``*queue*``, ``*lock*``/``*mutex*``); any other
receiver's ``send(op, …)`` is a handle's split send.
"""

import threading

state_lock = threading.Lock()
stats_lock = threading.Lock()


class Handle:
    def __init__(self, inbox, outbox):
        self.inbox = inbox
        self.outbox = outbox
        self._lock = threading.Lock()

    def drain(self):
        return self.outbox.get()  # VIOLATION: blocking get outside the worker loop

    def polled(self):
        return self.outbox.get(timeout=0.1)  # bounded poll: fine

    def enqueue(self, item):
        with self._lock:
            self.inbox.put(item)  # VIOLATION: put under a held lock

    def enqueue_outside(self, item):
        self.inbox.put(item)  # no lock held: fine

    def drain_pipe(self):
        return self.outbox.recv()  # VIOLATION: recv with no bounded poll

    def polled_pipe(self):
        if self.outbox.poll(0.5):
            return self.outbox.recv()  # bounded poll on the same end: fine
        return None

    def forever_poll(self):
        self.outbox.poll(None)
        return self.outbox.recv()  # VIOLATION: poll(None) is no bound

    def other_end_polled(self):
        self.inbox.poll(timeout=0.1)
        return self.outbox.recv()  # VIOLATION: the poll is on another end

    def send_locked(self, item):
        with self._lock:
            self.inbox.send(item)  # VIOLATION: send under a held lock

    def send_outside(self, item):
        self.inbox.send(item)  # no lock held: fine


class Router:
    """Split send/collect: every ticket a send returns must be collected."""

    def fan_out(self, handles, payload):
        tickets = [handle.send("recommend_many", payload) for handle in handles]
        return [handle.collect(ticket, timeout_s=5.0) for handle, ticket in zip(handles, tickets)]

    def fire_and_forget(self, handle, payload):
        handle.send("recommend_many", payload)  # VIOLATION: ticket dropped

    def parked(self, handle, op, payload):
        self.pending.append(handle.send(op, payload))  # VIOLATION: never collected here

    def hand_back(self, handle, op, payload):
        return handle.send(op, payload)  # the caller collects: fine

    def fan_out_lambdas(self, shards, payload):
        # Each lambda hands its ticket to the fan-out that collects it: fine.
        return self._fan_out({s: lambda h: h.send("recommend_many", payload) for s in shards})

    def pipe_send(self, op):
        self.inbox.send((op, 1, None))  # raw pipe send, not a split send: fine


class SplitHandle:
    def __init__(self, outbox):
        self.outbox = outbox

    def call(self, op, payload, timeout_s):
        status, result = self._recv(self.send(op, payload), timeout_s)  # _recv redeems: fine
        return result

    def call_dropped(self, op, payload):
        self.send(op, payload)  # VIOLATION: the handle's own send drops its ticket

    def collect(self, ticket):
        return self.outbox.recv()  # VIOLATION: a collect polls its end with a bound too

    def collect_polled(self, ticket, timeout_s):
        if self.outbox.poll(timeout_s):
            return self.outbox.recv()  # bounded poll on the same end: fine
        raise TimeoutError(ticket)


def forward():
    with state_lock:
        with stats_lock:  # VIOLATION: opposite order from backward()
            pass


def backward():
    with stats_lock:
        with state_lock:  # VIOLATION: lock-order inversion with forward()
            pass


def shard_worker_main(inbox, outbox):
    # The sanctioned worker loop may block forever on its inbox.
    while True:
        task = inbox.get()
        if task is None:
            break
        outbox.put(task)
        outbox.send(inbox.recv())
