"""RPR008 — RPC protocol exhaustiveness for the shard wire format.

The sharded serving tier speaks a tiny ``(op, seq, payload)`` protocol:
ops are string literals constructed at ``ShardHandle.call/cast/send``
sites (``send`` is the first half of a split send/collect call) and in
raw wire tuples such as the ``inbox.send(("stop", …))`` shutdown path,
via ``send`` or ``put`` or a wire helper that sends what it is given
(``_send_message(inbox, ("stop", …))``); they are consumed by string
comparisons in
``_dispatch`` / the worker loop.  Nothing checks
the two sides against each other — a typo'd op string fails at runtime
with an opaque "unknown op", a removed caller leaves a dead handler, and
a payload key a handler requires but no caller sets is a latent
``KeyError`` on a code path tests may never take.  This rule extracts
both sides from the ASTs and cross-checks them.

Payload-key semantics: a handler-side ``payload["k"]`` subscript is a
*mandatory* read (it raises when absent) unless guarded by a
``"k" in payload`` membership test; ``payload.get("k")`` is optional.
Caller-side keys are collected from dict literals at the call site and
``payload["k"] = …`` stores on the local payload name, transitively
through handler helpers that receive the payload onward.  Ops whose
payload expression is not statically resolvable are skipped rather than
guessed at.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import ParsedModule, Violation
from ..rules import ProjectRule
from .callgraph import SEND_METHODS, CallGraph, FunctionInfo, body_walk

#: Handler-side entry points: the dispatch table plus the worker loop
#: (which consumes "stop" before dispatch).
HANDLER_FUNCS = ("_dispatch", "shard_worker_main")

#: Handle methods that put ``(op, payload)`` on the wire.
WIRE_METHODS = ("call", "cast", "send")


class _HandlerOp:
    __slots__ = ("op", "node", "mandatory", "module")

    def __init__(self, op: str, node: ast.AST, module: ParsedModule) -> None:
        self.op = op
        self.node = node
        self.module = module
        #: mandatory payload keys → the AST node of the first read.
        self.mandatory: Dict[str, Tuple[ast.AST, ParsedModule]] = {}


def _string_compare_op(node: ast.AST, name: str) -> Optional[str]:
    """The string literal an ``<name> == "…"`` comparison tests against."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return None
    if not isinstance(node.ops[0], ast.Eq):
        return None
    left, right = node.left, node.comparators[0]
    if isinstance(left, ast.Name) and left.id == name:
        if isinstance(right, ast.Constant) and isinstance(right.value, str):
            return right.value
    if isinstance(right, ast.Name) and right.id == name:
        if isinstance(left, ast.Constant) and isinstance(left.value, str):
            return left.value
    return None


def _payload_reads(
    func: FunctionInfo,
    payload_param: str,
    graph: CallGraph,
    seen: Optional[Set[FunctionInfo]] = None,
    body: Optional[List[ast.stmt]] = None,
) -> Dict[str, Tuple[ast.AST, ParsedModule]]:
    """Mandatory payload-key reads in a handler body, helper-transitive.

    Returns ``{key: (node, module)}`` for every ``payload["key"]``
    subscript not guarded by a ``"key" in payload`` membership test,
    following the payload object into helpers called with it.
    """
    if seen is None:
        seen = set()
    reads: Dict[str, Tuple[ast.AST, ParsedModule]] = {}
    nodes: List[ast.AST] = []
    if body is not None:
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))
    else:
        nodes = list(body_walk(func.node))

    guarded: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            if (
                isinstance(node.ops[0], (ast.In, ast.NotIn))
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
                and isinstance(node.comparators[0], ast.Name)
                and node.comparators[0].id == payload_param
            ):
                guarded.add(node.left.value)

    for node in nodes:
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == payload_param
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and not isinstance(getattr(node, "ctx", None), ast.Store)
        ):
            key = node.slice.value
            if key not in guarded and key not in reads:
                reads[key] = (node, func.module)
        if isinstance(node, ast.Call):
            for callee in graph.resolve(node, func):
                if callee in seen:
                    continue
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Name) and arg.id == payload_param:
                        param = graph.param_for_arg(callee, node, position=i)
                        if param:
                            seen.add(callee)
                            for key, where in _payload_reads(
                                callee, param, graph, seen
                            ).items():
                                reads.setdefault(key, where)
    return reads


def _caller_payload_keys(
    func: FunctionInfo, payload_expr: Optional[ast.AST]
) -> Optional[Set[str]]:
    """Keys a call site statically sets, or ``None`` when unresolvable."""
    if payload_expr is None:
        return set()
    if isinstance(payload_expr, ast.Constant) and payload_expr.value is None:
        return set()
    if isinstance(payload_expr, ast.Dict):
        keys = set()
        for key in payload_expr.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
            else:
                return None  # dict with computed keys: give up
        return keys
    if isinstance(payload_expr, ast.Name):
        name = payload_expr.id
        keys: Optional[Set[str]] = None
        for node in body_walk(func.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        sub = _caller_payload_keys(func, node.value)
                        if sub is None:
                            return None
                        keys = set(sub) if keys is None else keys | sub
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == name
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        if keys is None:
                            keys = set()
                        keys.add(target.slice.value)
        return keys
    return None


def _wire_tuple_op(expr: ast.AST) -> Optional[str]:
    """The op of a raw ``(op, seq, payload)`` wire tuple literal."""
    if (
        isinstance(expr, ast.Tuple)
        and expr.elts
        and isinstance(expr.elts[0], ast.Constant)
        and isinstance(expr.elts[0].value, str)
    ):
        return expr.elts[0].value
    return None


def _payload_expr(call: ast.Call) -> Optional[ast.AST]:
    """The payload argument of a wire-method call (positional or keyword)."""
    if len(call.args) > 1:
        return call.args[1]
    for kw in call.keywords:
        if kw.arg == "payload":
            return kw.value
    return None


class RpcProtocolRule(ProjectRule):
    """RPR008 — op strings and payload keys checked against _dispatch."""

    id = "RPR008"
    title = "RPC op/payload mismatch against the _dispatch handler table"
    rationale = """
    The shard protocol is stringly typed: `handle.call("recommend", …)`
    on one side, `if op == "recommend":` in worker.py on the other, and
    payload dicts whose keys only the handler body documents.  The type
    system checks none of it.  An op with no handler dies at runtime
    inside a worker process where the traceback is a string reply; a
    handler with no remaining caller is dead protocol surface that still
    has to be maintained; a `payload["key"]` no caller sets is a
    KeyError on the next invocation.  This rule rebuilds both sides of
    the protocol from the ASTs — handler table from `_dispatch`/the
    worker loop, op constructions from call/cast/send sites and raw
    wire tuples passed to send/put or to a helper that sends them —
    and cross-checks ops and
    statically resolvable payload keys in both directions.
    """

    SCOPE = ("serving/",)

    def check_project(self, modules: List[ParsedModule]) -> Iterator[Violation]:
        scoped = [m for m in modules if m.in_package_dir(*self.SCOPE)]
        if not scoped:
            return
        graph = CallGraph(scoped)
        handlers = self._handler_table(graph)
        if not handlers:
            return
        callers = self._caller_table(graph)

        # Unknown ops: constructed somewhere, no handler branch.
        for op, sites in sorted(callers.items()):
            if op in handlers:
                continue
            for node, module, _ in sites:
                yield self.violation(
                    module,
                    node,
                    f'op "{op}" has no handler in the _dispatch table; '
                    f"known ops: {', '.join(sorted(handlers))}",
                )

        # Dead handlers: a branch no caller can reach.
        for op, handler in sorted(handlers.items()):
            if op not in callers:
                yield self.violation(
                    handler.module,
                    handler.node,
                    f'handler for op "{op}" is dead protocol surface: no '
                    "call/cast site constructs it",
                )
                continue
            # Payload keys: mandatory handler reads every caller misses.
            set_keys: Set[str] = set()
            resolvable = False
            for _, _, keys in callers[op]:
                if keys is not None:
                    resolvable = True
                    set_keys |= keys
            if not resolvable:
                continue  # every call site passes an opaque payload
            for key, (node, module) in sorted(handler.mandatory.items()):
                if key not in set_keys:
                    yield self.violation(
                        module,
                        node,
                        f'handler for op "{op}" requires payload key "{key}" '
                        "but no call site sets it",
                    )

    # -- handler side ------------------------------------------------------- #
    def _handler_table(self, graph: CallGraph) -> Dict[str, _HandlerOp]:
        handlers: Dict[str, _HandlerOp] = {}
        for func_name in HANDLER_FUNCS:
            for func in graph.by_name(func_name):
                # The op being dispatched is named "op" by protocol
                # convention — a parameter in _dispatch, a tuple-unpacked
                # local in the worker loop.
                for node in body_walk(func.node):
                    if not isinstance(node, ast.If):
                        continue
                    op = _string_compare_op(node.test, "op")
                    if op is None or op in handlers:
                        continue
                    handler = _HandlerOp(op, node, func.module)
                    payload_param = "payload" if "payload" in func.params else None
                    if payload_param:
                        handler.mandatory = _payload_reads(
                            func, payload_param, graph, body=node.body
                        )
                    handlers[op] = handler
        return handlers

    # -- caller side -------------------------------------------------------- #
    def _caller_table(
        self, graph: CallGraph
    ) -> Dict[str, List[Tuple[ast.AST, ParsedModule, Optional[Set[str]]]]]:
        callers: Dict[str, List[Tuple[ast.AST, ParsedModule, Optional[Set[str]]]]] = {}
        senders = graph.wire_helpers(SEND_METHODS)
        for func in graph.functions:
            # Handlers replying through the outbox are not op constructors.
            handler_side = func.name in HANDLER_FUNCS
            for node in body_walk(func.node):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                first = node.args[0]
                literal_op = isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                )
                attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
                if attr in WIRE_METHODS and literal_op:
                    keys = _caller_payload_keys(func, _payload_expr(node))
                    callers.setdefault(first.value, []).append((node, func.module, keys))
                    continue
                if handler_side:
                    continue
                # Raw wire tuples: inbox.send(("stop", seq, None)), or
                # the same tuple handed to a helper that sends it.
                if attr in ("put", "send"):
                    messages = [first]
                else:
                    bound = graph.wire_call(node, func, senders)
                    messages = bound[2] if bound is not None else []
                for message in messages:
                    op = _wire_tuple_op(message)
                    if op is None:
                        continue
                    payload_expr = message.elts[2] if len(message.elts) > 2 else None
                    keys = _caller_payload_keys(func, payload_expr)
                    callers.setdefault(op, []).append((node, func.module, keys))
        return callers
