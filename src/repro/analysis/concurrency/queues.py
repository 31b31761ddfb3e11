"""RPR010 — queue and lock hygiene in the serving tier.

The serving stack's liveness rests on four conventions the language
does not enforce.  (1) Only the worker loop may block forever on its
inbox — everywhere else, a ``Queue.get()`` without a timeout, or a pipe
``recv()`` not gated by a bounded ``poll(timeout)`` on the same end in
the same function, turns a dead worker into a hung caller, which is why
``ProcessShardHandle`` polls with a bounded timeout and re-checks worker
liveness.  (2) A ``put()`` or ``send()`` can block on a full queue or
pipe; doing it while holding a lock couples that backpressure to the
lock, so one slow consumer stalls every thread contending on it — a
classic deadlock shape once the consumer also wants the lock.
(3) Nested lock acquisitions must agree on one global order; two call
paths taking the same pair of locks in opposite orders deadlock the
first time they interleave.  (4) A handle's split ``send(op, …)``
returns a ticket that a ``collect`` in the same function must redeem
(the handle's own ``_recv`` counts), or that the function hands back
to its caller — by ``return`` or as a lambda's value: an uncollected
reply stays outstanding, and the next ``flush()`` drains it as if it
were an update ack.

Receivers are classified by naming convention (``inbox``/``outbox``/
``*queue*`` for queues and pipe ends, ``*lock*`` for locks) — the
conventions the sharded tier itself established — so the rule needs no
type inference.  A call to a wire helper (a function that sends or
receives on one of its parameters, such as ``_recv_message(conn)``)
counts as that send or recv on the end its caller passes in, and a
``select.poll`` object counts as a poll of every end ``register``ed
with it, when polled with an explicit timeout.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import ParsedModule, Violation
from ..rules import ProjectRule
from .callgraph import (
    RECV_METHODS,
    SEND_METHODS,
    CallGraph,
    FunctionInfo,
    body_walk,
    final_attr_name,
)

#: The one function allowed to block indefinitely on a queue.
WORKER_LOOP_FUNCS = frozenset({"shard_worker_main"})

QUEUE_NAME_HINTS = ("inbox", "outbox", "queue")
LOCK_NAME_HINTS = ("lock", "mutex")
#: Calls that redeem a split send's ticket: a handle's ``collect``, and
#: the ``_recv`` behind it inside the handle itself.
REDEEM_METHODS = ("collect", "_recv")


def _is_queue_name(name: Optional[str]) -> bool:
    return bool(name) and any(hint in name.lower() for hint in QUEUE_NAME_HINTS)


def _is_lock_name(name: Optional[str]) -> bool:
    return bool(name) and any(hint in name.lower() for hint in LOCK_NAME_HINTS)


def _lock_names_of_with(node: ast.With) -> List[str]:
    names = []
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        name = final_attr_name(expr)
        if _is_lock_name(name):
            names.append(name)
    return names


def _is_split_send(call: ast.Call) -> bool:
    """``handle.send(op, …)``: a handle's split send, not a raw pipe send."""
    if not (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "send"
        and call.args
        and not _is_queue_name(final_attr_name(call.func.value))
    ):
        return False
    first = call.args[0]
    if isinstance(first, ast.Constant):
        return isinstance(first.value, str)
    return isinstance(first, ast.Name) and first.id == "op"


def _registered_pollers(functions: List[FunctionInfo]) -> Dict[str, Set[str]]:
    """``{poller: ends}`` from every ``<poller>.register(<end>, …)`` call."""
    pollers: Dict[str, Set[str]] = {}
    for info in functions:
        for node in body_walk(info.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register"
                and node.args
                and _is_queue_name(final_attr_name(node.args[0]))
            ):
                poller = final_attr_name(node.func.value)
                pollers.setdefault(poller, set()).add(final_attr_name(node.args[0]))
    return pollers


def _bounded_polls(info: FunctionInfo, pollers: Dict[str, Set[str]]) -> Set[str]:
    """Ends the function polls with a bound (``poll(None)`` has none).

    A registered poller polls its ends; unlike a pipe end's ``poll()``,
    it waits forever without a timeout argument or with a negative one.
    """
    polled: Set[str] = set()
    for node in body_walk(info.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "poll"
        ):
            timeouts = list(node.args[:1]) + [
                kw.value for kw in node.keywords if kw.arg == "timeout"
            ]
            if any(isinstance(t, ast.Constant) and t.value is None for t in timeouts):
                continue
            receiver = final_attr_name(node.func.value)
            if receiver not in pollers:
                polled.add(receiver)
            elif timeouts and not any(
                isinstance(t, ast.UnaryOp) and isinstance(t.op, ast.USub) for t in timeouts
            ):
                polled |= pollers[receiver]
    return polled


class QueueLockHygieneRule(ProjectRule):
    """RPR010 — blocking gets/recvs, puts/sends under locks, lock-order inversions."""

    id = "RPR010"
    title = (
        "queue/lock hygiene (unbounded get/recv, put/send under lock, lock order, "
        "uncollected split sends)"
    )
    rationale = """
    A multiprocess serving tier fails by hanging, not by crashing.
    `Queue.get()` with no timeout, or a pipe `recv()` with no bounded
    `poll(timeout)` on that end in the same function, waits forever on
    a worker that already died — only the sanctioned worker loop may
    block indefinitely, because its producer (the handle) is also its
    supervisor.  `put()` on a bounded queue or `send()` on a pipe while
    holding a lock turns backpressure into lock contention: when the
    queue or pipe fills, the holder sleeps inside the critical section
    and every other thread waits behind a full pipe.  And two functions
    acquiring the same pair of locks in opposite orders are a deadlock
    waiting for the right interleaving.  All three are invisible to
    tests that don't race; all three are syntactically checkable, which
    is what this rule does across the serving tier using the tier's own
    naming conventions for queues, pipe ends and locks.  A wire helper
    that reads or writes a message on an end its caller passes in
    (`_recv_message`, `_send_message`) is checked at its call sites as
    that recv or send, and a `select.poll` object polls the ends
    registered with it.  It also pairs
    each split `handle.send(op, …)` with a `collect` in the same
    function: a ticket dropped on the floor leaves its reply
    outstanding, and the next `flush()` returns it as an update ack.
    """

    SCOPE = ("serving/",)

    def check_project(self, modules: List[ParsedModule]) -> Iterator[Violation]:
        scoped = [m for m in modules if m.in_package_dir(*self.SCOPE)]
        if not scoped:
            return
        graph = CallGraph(scoped)
        wire = _Wire(graph)
        # (outer, inner) -> first acquisition site, for inversion checks.
        orders: Dict[Tuple[str, str], Tuple[ast.With, ParsedModule, str]] = {}
        inversions: List[Violation] = []
        for info in graph.functions:
            yield from self._check_function(info, wire, orders, inversions)
        yield from inversions

    def _check_function(
        self,
        info: FunctionInfo,
        wire: "_Wire",
        orders: Dict[Tuple[str, str], Tuple[ast.With, ParsedModule, str]],
        inversions: List[Violation],
    ) -> Iterator[Violation]:
        module = info.module
        sanctioned_loop = info.name in WORKER_LOOP_FUNCS
        polled = _bounded_polls(info, wire.pollers)
        collects = any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in REDEEM_METHODS
            for call in body_walk(info.node)
        )
        # Returned values and lambda bodies hand a ticket back to a
        # caller that collects it.
        handed_back = [
            node.body if isinstance(node, ast.Lambda) else node.value
            for node in body_walk(info.node)
            if isinstance(node, ast.Lambda)
            or (isinstance(node, ast.Return) and node.value is not None)
        ]
        returned = {id(inner) for value in handed_back for inner in ast.walk(value)}

        def walk(node: ast.AST, held_locks: Tuple[str, ...]) -> Iterator[Violation]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                child_locks = held_locks
                if isinstance(child, ast.With):
                    acquired = _lock_names_of_with(child)
                    for inner in acquired:
                        for outer in held_locks:
                            if inner == outer:
                                continue
                            orders.setdefault(
                                (outer, inner), (child, module, info.qualname)
                            )
                            reverse = orders.get((inner, outer))
                            if reverse is not None:
                                other_node, other_module, other_func = reverse
                                inversions.append(
                                    self.violation(
                                        module,
                                        child,
                                        f"lock order inversion: acquires "
                                        f"'{inner}' while holding '{outer}', "
                                        f"but {other_func} ({other_module.path.name}:"
                                        f"{other_node.lineno}) acquires them in "
                                        "the opposite order",
                                    )
                                )
                                inversions.append(
                                    self.violation(
                                        other_module,
                                        other_node,
                                        f"lock order inversion: acquires "
                                        f"'{outer}' while holding '{inner}', "
                                        f"but {info.qualname} ({module.path.name}:"
                                        f"{child.lineno}) acquires them in "
                                        "the opposite order",
                                    )
                                )
                    child_locks = held_locks + tuple(acquired)
                if isinstance(child, ast.Call) and _is_split_send(child):
                    if isinstance(node, ast.Expr):
                        yield self.violation(
                            module,
                            child,
                            "split send() drops its ticket: the reply is never "
                            "collected, stays outstanding, and the next flush() "
                            "returns it as an update ack",
                        )
                    elif not collects and id(child) not in returned:
                        yield self.violation(
                            module,
                            child,
                            "split send() with no collect() in this function "
                            "(and its ticket is not returned): the reply stays "
                            "outstanding, and the next flush() returns it as an "
                            "update ack",
                        )
                if isinstance(child, ast.Call):
                    yield from self._check_wire_call(
                        child, info, wire, sanctioned_loop, polled, held_locks
                    )
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                    receiver = final_attr_name(child.func.value)
                    if child.func.attr == "get" and _is_queue_name(receiver):
                        has_timeout = any(
                            kw.arg == "timeout" for kw in child.keywords
                        ) or len(child.args) > 1
                        if not has_timeout and not sanctioned_loop:
                            yield self.violation(
                                module,
                                child,
                                f"blocking {receiver}.get() without timeout "
                                "outside the sanctioned worker loop; a dead "
                                "producer hangs this caller forever — poll "
                                "with a bounded timeout",
                            )
                    if (
                        child.func.attr in RECV_METHODS
                        and _is_queue_name(receiver)
                        and not sanctioned_loop
                        and receiver not in polled
                    ):
                        yield self.violation(
                            module,
                            child,
                            f"{receiver}.{child.func.attr}() with no bounded "
                            f"{receiver}.poll(timeout) in this function, "
                            "outside the sanctioned worker loop; a dead "
                            "peer hangs this caller forever",
                        )
                    if child.func.attr in SEND_METHODS and _is_queue_name(receiver):
                        if held_locks:
                            yield self.violation(
                                module,
                                child,
                                f"{receiver}.{child.func.attr}() while holding "
                                f"lock '{held_locks[-1]}'; a full queue or pipe "
                                "blocks inside the critical section — "
                                "send outside the lock",
                            )
                yield from walk(child, child_locks)

        yield from walk(info.node, ())

    def _check_wire_call(
        self,
        call: ast.Call,
        info: FunctionInfo,
        wire: "_Wire",
        sanctioned_loop: bool,
        polled: Set[str],
        held_locks: Tuple[str, ...],
    ) -> Iterator[Violation]:
        """A wire helper's call, checked as the recv or send it makes."""
        bound = wire.graph.wire_call(call, info, wire.receivers)
        if bound is not None:
            helper, end, _ = bound
            name = final_attr_name(end)
            if _is_queue_name(name) and not sanctioned_loop and name not in polled:
                yield self.violation(
                    info.module,
                    call,
                    f"{helper.name}() reads {name} with no bounded "
                    f"{name}.poll(timeout) (or registered poller) in this "
                    "function, outside the sanctioned worker loop; a dead "
                    "peer hangs this caller forever",
                )
        bound = wire.graph.wire_call(call, info, wire.senders)
        if bound is not None and held_locks:
            helper, end, _ = bound
            name = final_attr_name(end)
            if _is_queue_name(name):
                yield self.violation(
                    info.module,
                    call,
                    f"{helper.name}() sends on {name} while holding lock "
                    f"'{held_locks[-1]}'; a full queue or pipe blocks inside "
                    "the critical section — send outside the lock",
                )


class _Wire:
    """The scope's wire helpers and registered pollers, found once."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.receivers = graph.wire_helpers(RECV_METHODS)
        self.senders = graph.wire_helpers(SEND_METHODS)
        self.pollers = _registered_pollers(graph.functions)
