"""RPR010 — queue and lock hygiene in the serving tier.

The serving stack's liveness rests on three conventions the language
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
first time they interleave.

Receivers are classified by naming convention (``inbox``/``outbox``/
``*queue*`` for queues and pipe ends, ``*lock*`` for locks) — the
conventions the sharded tier itself established — so the rule needs no
type inference.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import ParsedModule, Violation
from ..rules import ProjectRule
from .callgraph import CallGraph, FunctionInfo, body_walk, final_attr_name

#: The one function allowed to block indefinitely on a queue.
WORKER_LOOP_FUNCS = frozenset({"shard_worker_main"})

QUEUE_NAME_HINTS = ("inbox", "outbox", "queue")
LOCK_NAME_HINTS = ("lock", "mutex")


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


def _bounded_polls(info: FunctionInfo) -> Set[str]:
    """Receivers the function polls with a bound (``poll(None)`` has none)."""
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
            if not any(
                isinstance(t, ast.Constant) and t.value is None for t in timeouts
            ):
                polled.add(final_attr_name(node.func.value))
    return polled


class QueueLockHygieneRule(ProjectRule):
    """RPR010 — blocking gets/recvs, puts/sends under locks, lock-order inversions."""

    id = "RPR010"
    title = "queue/lock hygiene (unbounded get/recv, put/send under lock, lock order)"
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
    naming conventions for queues, pipe ends and locks.
    """

    SCOPE = ("serving/",)

    def check_project(self, modules: List[ParsedModule]) -> Iterator[Violation]:
        scoped = [m for m in modules if m.in_package_dir(*self.SCOPE)]
        if not scoped:
            return
        graph = CallGraph(scoped)
        # (outer, inner) -> first acquisition site, for inversion checks.
        orders: Dict[Tuple[str, str], Tuple[ast.With, ParsedModule, str]] = {}
        inversions: List[Violation] = []
        for info in graph.functions:
            yield from self._check_function(info, orders, inversions)
        yield from inversions

    def _check_function(
        self,
        info: FunctionInfo,
        orders: Dict[Tuple[str, str], Tuple[ast.With, ParsedModule, str]],
        inversions: List[Violation],
    ) -> Iterator[Violation]:
        module = info.module
        sanctioned_loop = info.name in WORKER_LOOP_FUNCS
        polled = _bounded_polls(info)

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
                        child.func.attr == "recv"
                        and _is_queue_name(receiver)
                        and not sanctioned_loop
                        and receiver not in polled
                    ):
                        yield self.violation(
                            module,
                            child,
                            f"{receiver}.recv() with no bounded "
                            f"{receiver}.poll(timeout) in this function, "
                            "outside the sanctioned worker loop; a dead "
                            "peer hangs this caller forever",
                        )
                    if child.func.attr in ("put", "send") and _is_queue_name(receiver):
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
