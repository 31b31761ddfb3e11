"""RPR007 — shm-write escape analysis over the project call graph.

The sharded serving contract (PR 7) is single-writer: the service owner
process populates a ``SharedArrayBundle`` once, every worker attaches
read-only views, and bitwise parity with the single-process scorer rests
on nobody flipping that. This rule taints every expression that can
reach a worker-attached segment — ``attach_bundle(...)`` results,
``np.ndarray(buffer=...)`` views, ``bank[...]`` subscripts — propagates
the taint through aliases, views, container displays and call arguments,
and flags any write that lands on a tainted value: re-enabling the write
flag, subscript stores, in-place operators, mutating ndarray methods,
``out=`` targets, and calls that pass a tainted view into a parameter
the callee (transitively) mutates.

Copies launder taint (``np.array(view, copy=True)``, ``.copy()``); view
takers do not (``asarray``, ``ascontiguousarray``, ``broadcast_to``,
``.reshape()``, ``.T``). The owner role — ``SharedArrayBundle`` methods,
which legitimately fill the segment they create — is exempt; every other
write-enable site must carry a ``# lint: disable=RPR007`` pragma so the
exceptions stay auditable.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import ParsedModule, Violation
from ..rules import ProjectRule
from .callgraph import (
    MUTATING_METHODS,
    CallGraph,
    FunctionInfo,
    body_walk,
    final_attr_name,
    writeable_enable_target,
)

#: Receiver names whose subscripts are shared-segment views by convention.
BANK_NAMES = frozenset({"bank", "_bank"})

#: Classes that own the segment lifecycle and may write into it.
OWNER_CLASSES = frozenset({"SharedArrayBundle"})

#: Method calls that return fresh memory — taint stops here.
LAUNDERING_METHODS = frozenset(
    {"copy", "tolist", "tobytes", "astype", "sum", "mean", "item", "max", "min"}
)

#: Method calls that return a view (or the same buffer) of their receiver.
VIEW_METHODS = frozenset(
    {"view", "reshape", "ravel", "transpose", "squeeze", "items", "values", "keys", "get"}
)

#: numpy-level functions that alias (or may alias) their first argument.
ALIASING_FUNCS = frozenset(
    {"asarray", "ascontiguousarray", "asanyarray", "atleast_1d", "atleast_2d", "broadcast_to"}
)

#: numpy-level functions that copy — results are private.
COPYING_FUNCS = frozenset({"array", "copy"})

#: Methods that serialize their arguments across a process/queue
#: boundary (mp.Queue pickles): the receiver gets a value copy, so
#: taint never crosses an RPC edge — the worker side re-taints from its
#: own attach_bundle seeds instead.
SERIALIZING_METHODS = frozenset({"call", "cast", "put", "put_nowait", "send"})


def _is_serializing_call(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in SERIALIZING_METHODS
    )


def _binding_names(target: ast.AST) -> Iterator[str]:
    """Names an assignment target actually (re)binds.

    ``x = …`` binds ``x``; ``a, b = …`` binds both; but a subscript or
    attribute store (``self._pending[epoch] = …``) binds *nothing* — it
    writes through an existing object, so neither ``self`` nor ``epoch``
    acquires the value's taint.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _binding_names(elt)


def _call_target_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _FunctionTaint:
    """Taint state for one function: which local names alias shared memory."""

    def __init__(
        self,
        info: FunctionInfo,
        graph: CallGraph,
        seed_params: Set[str],
        returns_tainted: Dict[FunctionInfo, bool],
    ) -> None:
        self.info = info
        self.graph = graph
        self.returns_tainted = returns_tainted
        self.tainted: Set[str] = set(seed_params)
        self._propagate()

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in body_walk(self.info.node):
                targets: List[ast.AST] = []
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign):
                    targets, value = list(node.targets), node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                elif isinstance(node, ast.For):
                    if self.is_tainted(node.iter):
                        targets, value = [node.target], None
                if value is not None and not self.is_tainted(value):
                    continue
                for target in targets:
                    for name in _binding_names(target):
                        if name not in self.tainted:
                            self.tainted.add(name)
                            changed = True

    # -- expression classification ----------------------------------------- #
    def is_tainted(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Starred):
            return self.is_tainted(node.value)
        if isinstance(node, ast.Subscript):
            container = node.value
            name = final_attr_name(container)
            if name in BANK_NAMES:
                return True
            return self.is_tainted(container)
        if isinstance(node, ast.Attribute):
            return self.is_tainted(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self.is_tainted(elt) for elt in node.elts)
        if isinstance(node, ast.Dict):
            return any(v is not None and self.is_tainted(v) for v in node.values)
        if isinstance(node, ast.IfExp):
            return self.is_tainted(node.body) or self.is_tainted(node.orelse)
        if isinstance(node, ast.Call):
            return self._call_tainted(node)
        return False

    def _call_tainted(self, node: ast.Call) -> bool:
        name = _call_target_name(node.func)
        if name == "attach_bundle":
            return True
        if name == "ndarray" and any(kw.arg == "buffer" for kw in node.keywords):
            return True
        if isinstance(node.func, ast.Attribute):
            receiver_tainted = self.is_tainted(node.func.value)
            if name in LAUNDERING_METHODS:
                return False
            if name in VIEW_METHODS and receiver_tainted:
                return True
        if name in COPYING_FUNCS:
            return False
        if name in ALIASING_FUNCS:
            return any(self.is_tainted(arg) for arg in node.args)
        for callee in self.graph.resolve(node, self.info):
            if self.returns_tainted.get(callee, False):
                return True
        return False


class ShmWriteEscapeRule(ProjectRule):
    """RPR007 — writes escaping onto worker-attached shared views."""

    id = "RPR007"
    title = "write reaches a worker-attached shared-memory view"
    rationale = """
    Sharded serving (PR 7) is bitwise-equal to the single-process scorer
    only under a single-writer protocol: the owner process fills the
    SharedArrayBundle once, workers attach views with the write flag
    revoked, and every score is computed from identical bytes.  One
    stray write in a worker — re-enabling `flags.writeable`, an in-place
    `+=`, an `out=` into a bank view, or passing a view to a helper that
    mutates its argument — corrupts the segment for every shard at once,
    and only shows up as a parity diff much later.  This rule taints
    attach_bundle results and `bank[...]` views, follows aliases and
    call arguments across the serving call graph, and flags any write
    that can land on shared bytes.  Copies (`np.array(view, copy=True)`,
    `.copy()`) are private and unflagged; the owner role
    (SharedArrayBundle itself) is exempt; any other legitimate
    write-enable carries `# lint: disable=RPR007` so exceptions stay
    auditable.
    """

    SCOPE = ("serving/",)

    def check_project(self, modules: List[ParsedModule]) -> Iterator[Violation]:
        scoped = [m for m in modules if m.in_package_dir(*self.SCOPE)]
        if not scoped:
            return
        graph = CallGraph(scoped)
        mutated = graph.mutated_params()
        param_taint, returns_tainted = self._global_taint(graph)

        seen: Set[Tuple[str, int, int]] = set()
        for info in graph.functions:
            if info.cls in OWNER_CLASSES:
                continue
            taint = _FunctionTaint(info, graph, param_taint[info], returns_tainted)
            for violation in self._check_function(info, graph, mutated, taint):
                key = (violation.path, violation.line, violation.col)
                if key not in seen:
                    seen.add(key)
                    yield violation

    # -- global fixpoint ---------------------------------------------------- #
    def _global_taint(
        self, graph: CallGraph
    ) -> Tuple[Dict[FunctionInfo, Set[str]], Dict[FunctionInfo, bool]]:
        """Propagate taint across call edges and return statements."""
        param_taint: Dict[FunctionInfo, Set[str]] = {f: set() for f in graph.functions}
        returns_tainted: Dict[FunctionInfo, bool] = {f: False for f in graph.functions}
        changed = True
        while changed:
            changed = False
            for info in graph.functions:
                taint = _FunctionTaint(info, graph, param_taint[info], returns_tainted)
                if not returns_tainted[info]:
                    for node in body_walk(info.node):
                        if (
                            isinstance(node, ast.Return)
                            and node.value is not None
                            and taint.is_tainted(node.value)
                        ):
                            returns_tainted[info] = True
                            changed = True
                            break
                for call, callees in graph.calls_in(info):
                    if _is_serializing_call(call):
                        continue
                    for callee in callees:
                        for i, arg in enumerate(call.args):
                            param = graph.param_for_arg(callee, call, position=i)
                            if (
                                param
                                and param not in param_taint[callee]
                                and taint.is_tainted(arg)
                            ):
                                param_taint[callee].add(param)
                                changed = True
                        for kw in call.keywords:
                            if kw.arg is None:
                                continue
                            param = graph.param_for_arg(callee, call, keyword=kw.arg)
                            if (
                                param
                                and param not in param_taint[callee]
                                and taint.is_tainted(kw.value)
                            ):
                                param_taint[callee].add(param)
                                changed = True
        return param_taint, returns_tainted

    # -- per-function checks ------------------------------------------------ #
    def _check_function(
        self,
        info: FunctionInfo,
        graph: CallGraph,
        mutated: Dict[FunctionInfo, Set[str]],
        taint: _FunctionTaint,
    ) -> Iterator[Violation]:
        module = info.module
        for node in body_walk(info.node):
            enabled = writeable_enable_target(node)
            if enabled is not None:
                yield self.violation(
                    module,
                    node,
                    "re-enables the write flag on an array in the sharded serving "
                    "tier; workers must never make attached views writeable "
                    "(owner role is SharedArrayBundle; mark sanctioned sites "
                    "with `# lint: disable=RPR007`)",
                )
                continue
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and taint.is_tainted(
                        target.value
                    ):
                        yield self.violation(
                            module,
                            node,
                            "subscript store into a worker-attached shared view; "
                            "copy first (np.array(view, copy=True)) — workers "
                            "must not write the segment",
                        )
            elif isinstance(node, ast.AugAssign):
                target_tainted = (
                    taint.is_tainted(node.target)
                    if isinstance(node.target, (ast.Name, ast.Attribute))
                    else isinstance(node.target, ast.Subscript)
                    and taint.is_tainted(node.target.value)
                )
                if target_tainted:
                    yield self.violation(
                        module,
                        node,
                        "in-place operation on a worker-attached shared view; "
                        "operate on a private copy instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(info, graph, mutated, taint, node)

    def _check_call(
        self,
        info: FunctionInfo,
        graph: CallGraph,
        mutated: Dict[FunctionInfo, Set[str]],
        taint: _FunctionTaint,
        node: ast.Call,
    ) -> Iterator[Violation]:
        module = info.module
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and taint.is_tainted(node.func.value)
        ):
            yield self.violation(
                module,
                node,
                f".{node.func.attr}() mutates a worker-attached shared view "
                "in place; copy before mutating",
            )
            return
        for kw in node.keywords:
            if kw.arg == "out" and taint.is_tainted(kw.value):
                yield self.violation(
                    module,
                    node,
                    "out= targets a worker-attached shared view; write into "
                    "a private buffer",
                )
                return
        if _is_serializing_call(node):
            return  # payload is pickled across the boundary: value copy
        for callee in graph.resolve(node, info):
            callee_mutated = mutated.get(callee, set())
            if not callee_mutated:
                continue
            for i, arg in enumerate(node.args):
                param = graph.param_for_arg(callee, node, position=i)
                if param in callee_mutated and taint.is_tainted(arg):
                    yield self.violation(
                        module,
                        node,
                        f"passes a worker-attached shared view to "
                        f"{callee.qualname}(), which mutates its "
                        f"'{param}' parameter",
                    )
                    return
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                param = graph.param_for_arg(callee, node, keyword=kw.arg)
                if param in callee_mutated and taint.is_tainted(kw.value):
                    yield self.violation(
                        module,
                        node,
                        f"passes a worker-attached shared view to "
                        f"{callee.qualname}(), which mutates its "
                        f"'{param}' parameter",
                    )
                    return
