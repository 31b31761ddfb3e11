"""RPR010 fixture — queue/lock hygiene in the serving tier.

Never imported; parsed by the lint self-tests.  Queues, pipe ends and
locks are recognised by the serving tier's naming conventions
(``inbox``/``outbox``/``*queue*``, ``*lock*``/``*mutex*``).
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
