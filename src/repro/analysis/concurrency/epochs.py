"""RPR009 — epoch discipline for shard state mutation.

Feature pushes reach shards as epoch-stamped updates, and
``Shard.submit_update`` is the *only* sanctioned entrance: it drops
stale/duplicate epochs, buffers futures, applies contiguously, and keeps
``applied_epoch`` truthful — the invariants the fault-injector tests
(duplicate/reorder/drop) pin at runtime.  Any other path that touches
scorer overlays or invalidates recommendation caches bypasses that
sequencing: a direct ``scorer.update_item_features(...)`` from a worker
op applies an update the epoch ledger never saw, so a later legitimate
epoch silently double-applies or resurrects the state it replaced.

Flagged, anywhere under ``serving/``: calls to scorer mutators
(``update_item_features``) and cache mutators (``apply_update``,
``invalidate*``, ``clear`` on index/cache receivers) outside the
sanctioned functions (``submit_update`` / ``_apply_update``; ``close``
may clear caches on teardown), plus stores to ``applied_epoch`` outside
``__init__``/``submit_update``.  When the offending function is
reachable from the worker dispatch table, the message says through
which entry point.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from ..engine import ParsedModule, Violation
from ..rules import ProjectRule
from .callgraph import CallGraph, FunctionInfo, body_walk, final_attr_name

#: Methods that mutate scorer state regardless of receiver spelling.
SCORER_MUTATORS = frozenset({"update_item_features"})

#: Methods that mutate cache/index state — only when the receiver names
#: an index or cache (``self.index.clear()`` yes, ``overlay.clear()`` no).
CACHE_MUTATOR_PREFIXES = ("invalidate",)
CACHE_MUTATORS = frozenset({"apply_update", "clear"})
CACHE_RECEIVER_HINTS = ("index", "cache")

#: Functions allowed to mutate shard state (the epoch-sequenced path).
SANCTIONED = frozenset({"submit_update", "_apply_update"})
#: Teardown may clear caches.
TEARDOWN = frozenset({"close"})
#: Functions allowed to store applied_epoch.
EPOCH_WRITERS = frozenset({"__init__", "submit_update"})

#: Worker entry points for the reachability annotation.
WORKER_ROOTS = ("_dispatch", "shard_worker_main")


def _receiver_is_cache(node: ast.AST) -> bool:
    """Does the receiver expression mention an index/cache component?"""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript, ast.Call)):
        name = final_attr_name(current) if not isinstance(current, ast.Call) else None
        if name and any(hint in name.lower() for hint in CACHE_RECEIVER_HINTS):
            return True
        current = getattr(current, "value", getattr(current, "func", None))
        if current is None:
            return False
    name = final_attr_name(current) if current is not None else None
    return bool(name and any(hint in name.lower() for hint in CACHE_RECEIVER_HINTS))


class EpochDisciplineRule(ProjectRule):
    """RPR009 — shard state mutation outside submit_update sequencing."""

    id = "RPR009"
    title = "shard state mutated outside Shard.submit_update epoch sequencing"
    rationale = """
    Sharded invalidation is correct because every scorer/cache mutation
    flows through Shard.submit_update: epochs apply contiguously,
    duplicates and stale deliveries drop, out-of-order deliveries
    buffer, and applied_epoch records exactly what the shard has seen.
    A mutation that skips that path — a worker op calling
    scorer.update_item_features directly, an ad-hoc cache invalidation,
    a rewound applied_epoch — silently breaks the contiguous-apply
    invariant: a later epoch can double-apply, or a reordered delivery
    can resurrect cache entries the update just killed, and the 1/2/4-
    shard parity suite only catches it if a test happens to race the
    exact interleaving.  This rule walks the serving call graph and
    flags scorer mutators, index/cache invalidation and applied_epoch
    stores outside the sanctioned functions, annotating findings that
    are reachable from the worker dispatch table.
    """

    SCOPE = ("serving/",)

    def check_project(self, modules: List[ParsedModule]) -> Iterator[Violation]:
        scoped = [m for m in modules if m.in_package_dir(*self.SCOPE)]
        if not scoped:
            return
        graph = CallGraph(scoped)
        roots = [f for name in WORKER_ROOTS for f in graph.by_name(name)]
        worker_reachable = graph.reachable_from(roots) if roots else set()

        for info in graph.functions:
            suffix = ""
            if info in worker_reachable:
                suffix = " (reachable from the worker dispatch table)"
            yield from self._check_function(info, suffix)

    def _check_function(self, info: FunctionInfo, suffix: str) -> Iterator[Violation]:
        module = info.module
        for node in body_walk(info.node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in SCORER_MUTATORS and info.name not in SANCTIONED:
                    yield self.violation(
                        module,
                        node,
                        f"{attr}() outside Shard.submit_update's epoch "
                        "sequencing; route the mutation through "
                        f"submit_update so it is epoch-stamped{suffix}",
                    )
                elif (
                    (
                        attr in CACHE_MUTATORS
                        or attr.startswith(CACHE_MUTATOR_PREFIXES)
                    )
                    and _receiver_is_cache(node.func.value)
                    and info.name not in SANCTIONED
                    and not (attr == "clear" and info.name in TEARDOWN)
                ):
                    yield self.violation(
                        module,
                        node,
                        f"cache mutation .{attr}() outside the epoch-sequenced "
                        "update path; stale entries can be resurrected by "
                        f"reordered epochs{suffix}",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "applied_epoch"
                        and info.name not in EPOCH_WRITERS
                    ):
                        yield self.violation(
                            module,
                            node,
                            "applied_epoch written outside __init__/"
                            "submit_update; the epoch ledger must only "
                            f"advance through the sequenced path{suffix}",
                        )
