"""Project call graph for the interprocedural lint rules (RPR007–RPR010).

RPR003 already walks alias chains and module-level helpers inside one
file (``fingerprints.py``); this module generalises that machinery to a
*project* scope: every function and method across the parsed module set,
name-based call resolution between them, reachability, and a fixpoint
parameter-mutation summary that lets a rule ask "does passing an array
into this helper mutate it, possibly three calls deep?".

Resolution is deliberately name-based and conservative — the repo has no
metaprogramming in the serving tier, and a lint pass that over-resolves
(several candidates for ``obj.method()``) errs toward finding more
callees, never fewer.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..engine import ParsedModule

#: ndarray methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "itemset", "resize"}
)

#: Queue/pipe-end methods that write one whole message, and that read one.
SEND_METHODS = ("send", "send_bytes", "put")
RECV_METHODS = ("recv", "recv_bytes")


class FunctionInfo:
    """One function or method definition somewhere in the module set."""

    __slots__ = ("name", "cls", "qualname", "node", "module", "params")

    def __init__(
        self,
        node: ast.FunctionDef,
        module: ParsedModule,
        cls: Optional[str],
    ) -> None:
        self.node = node
        self.module = module
        self.cls = cls
        self.name = node.name
        self.qualname = f"{cls}.{node.name}" if cls else node.name
        self.params = [arg.arg for arg in node.args.args]

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.module.path.name}:{self.qualname})"


def body_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an AST without descending into nested function/class defs.

    A function's own statements should not be attributed to the helpers
    defined inside it — those are separate :class:`FunctionInfo` entries.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` under a chain of attribute/subscript accesses.

    ``bank["scores"][0]`` → ``bank``; ``view.flags.writeable`` → ``view``;
    ``self.scorer.bank`` → ``self``.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def final_attr_name(node: ast.AST) -> Optional[str]:
    """The last name segment of a receiver expression.

    ``self._inbox`` → ``_inbox``; ``queue`` → ``queue``; used by the
    queue/lock heuristics to classify receivers by naming convention.
    """
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_truthy(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and bool(node.value)


def writeable_enable_target(node: ast.AST) -> Optional[ast.AST]:
    """The array expression whose write flag an AST node re-enables.

    Matches ``<expr>.flags.writeable = <truthy>`` (returns ``<expr>``)
    and ``<expr>.setflags(write=<truthy>)``; ``None`` otherwise.
    Assigning ``False`` — *revoking* write access — never matches.
    """
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "writeable"
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "flags"
                and is_truthy(node.value)
            ):
                return target.value.value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setflags"
    ):
        for keyword in node.keywords:
            if keyword.arg == "write" and is_truthy(keyword.value):
                return node.func.value
    return None


def _direct_mutations(info: FunctionInfo) -> Set[str]:
    """Parameter names this function mutates through its own statements.

    A parameter counts as mutated when the function subscript-stores or
    aug-assigns into it, re-enables its write flag, calls an in-place
    ndarray method on it, or targets it with an ``out=`` keyword.  A
    parameter that is *rebound* (``x = np.asarray(x)``) is excluded:
    after rebinding, writes hit the local copy, not the caller's array.
    ``self`` is excluded — mutating your own attributes is not mutating
    a caller-supplied array.
    """
    params = {p for p in info.params if p != "self"}
    mutated: Set[str] = set()
    rebound: Set[str] = set()
    for node in body_walk(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    rebound.add(target.id)
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "writeable"
                        and not is_truthy(node.value)
                    ):
                        continue  # revoking write access is not a mutation
                    name = root_name(target)
                    if name:
                        mutated.add(name)
        elif isinstance(node, ast.AugAssign):
            name = root_name(node.target)
            if name:
                mutated.add(name)
        elif isinstance(node, ast.Call):
            enabled = writeable_enable_target(node)
            if enabled is not None:
                name = root_name(enabled)
                if name:
                    mutated.add(name)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
            ):
                name = root_name(node.func.value)
                if name:
                    mutated.add(name)
            for keyword in node.keywords:
                if keyword.arg == "out":
                    name = root_name(keyword.value)
                    if name:
                        mutated.add(name)
    return (mutated - rebound) & params


class CallGraph:
    """Functions, call edges, reachability and mutation summaries."""

    def __init__(self, modules: Sequence[ParsedModule]) -> None:
        self.modules = list(modules)
        self.functions: List[FunctionInfo] = []
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        for module in self.modules:
            self._collect(module)
        # (caller, call node, resolved callees) for every call expression.
        self._edges: Dict[FunctionInfo, List[Tuple[ast.Call, List[FunctionInfo]]]] = {}
        for info in self.functions:
            edges = []
            for node in body_walk(info.node):
                if isinstance(node, ast.Call):
                    callees = self.resolve(node, info)
                    if callees:
                        edges.append((node, callees))
            self._edges[info] = edges

    def _collect(self, module: ParsedModule) -> None:
        def visit(node: ast.AST, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(child, module, cls)
                    self.functions.append(info)
                    self._by_name.setdefault(info.name, []).append(info)
                    visit(child, None)  # nested defs are plain functions
                elif isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                else:
                    visit(child, cls)

        visit(module.tree, None)

    # -- resolution -------------------------------------------------------- #
    def by_name(self, name: str) -> List[FunctionInfo]:
        return list(self._by_name.get(name, ()))

    def resolve(self, call: ast.Call, caller: FunctionInfo) -> List[FunctionInfo]:
        """Candidate definitions for a call expression.

        ``f(...)`` resolves to module-level functions named ``f``
        (same-module definitions win); ``self.m(...)`` to a method ``m``
        on the caller's own class when one exists; ``obj.m(...)`` to any
        known method named ``m`` (all candidates — conservative).
        """
        func = call.func
        if isinstance(func, ast.Name):
            candidates = [f for f in self._by_name.get(func.id, ()) if f.cls is None]
            same = [f for f in candidates if f.module is caller.module]
            return same or candidates
        if isinstance(func, ast.Attribute):
            candidates = self._by_name.get(func.attr, [])
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and caller.cls is not None
            ):
                own = [
                    f
                    for f in candidates
                    if f.cls == caller.cls and f.module is caller.module
                ]
                if own:
                    return own
            methods = [f for f in candidates if f.cls is not None]
            return methods or list(candidates)
        return []

    def calls_in(self, info: FunctionInfo) -> List[Tuple[ast.Call, List[FunctionInfo]]]:
        return self._edges.get(info, [])

    # -- reachability ------------------------------------------------------- #
    def reachable_from(self, roots: Sequence[FunctionInfo]) -> Set[FunctionInfo]:
        """Transitive closure of the call relation from ``roots``."""
        seen: Set[FunctionInfo] = set(roots)
        stack = list(roots)
        while stack:
            info = stack.pop()
            for _, callees in self.calls_in(info):
                for callee in callees:
                    if callee not in seen:
                        seen.add(callee)
                        stack.append(callee)
        return seen

    # -- wire helpers ------------------------------------------------------- #
    def wire_helpers(self, methods: Sequence[str]) -> Dict[FunctionInfo, Tuple[str, Set[str]]]:
        """Functions that call one of ``methods`` on one of their parameters.

        ``{function: (end parameter, carried parameters)}``: the helper
        writes (or reads) on whatever end its caller binds to the end
        parameter, and the carried parameters are those named inside
        that call's arguments — ``conn.send_bytes(pickle.dumps(message))``
        carries ``message``.  A call to such a helper is a send or recv
        on the caller's end, which the wire rules must see as one.
        """
        helpers: Dict[FunctionInfo, Tuple[str, Set[str]]] = {}
        for info in self.functions:
            for node in body_walk(info.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in methods
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in info.params
                    and node.func.value.id != "self"
                ):
                    continue
                carried = {
                    name.id
                    for arg in node.args
                    for name in ast.walk(arg)
                    if isinstance(name, ast.Name) and name.id in info.params
                }
                helpers[info] = (node.func.value.id, carried)
                break
        return helpers

    def wire_call(
        self,
        call: ast.Call,
        caller: FunctionInfo,
        helpers: Dict[FunctionInfo, Tuple[str, Set[str]]],
    ) -> Optional[Tuple[FunctionInfo, ast.AST, List[ast.AST]]]:
        """``(helper, end argument, carried arguments)`` of a helper call."""
        for callee in self.resolve(call, caller):
            if callee not in helpers:
                continue
            end_param, carried = helpers[callee]
            bindings = [
                (arg, self.param_for_arg(callee, call, position=i))
                for i, arg in enumerate(call.args)
            ] + [(kw.value, kw.arg) for kw in call.keywords if kw.arg is not None]
            ends = [arg for arg, param in bindings if param == end_param]
            if ends:
                return callee, ends[0], [arg for arg, param in bindings if param in carried]
        return None

    # -- mutation summaries ------------------------------------------------- #
    def param_for_arg(
        self,
        callee: FunctionInfo,
        call: ast.Call,
        position: Optional[int] = None,
        keyword: Optional[str] = None,
    ) -> Optional[str]:
        """The callee parameter an argument lands in, or ``None``.

        Accounts for the implicit ``self`` slot when the callee is a
        method invoked through an attribute (``obj.m(a)`` binds ``a`` to
        the second parameter).
        """
        if keyword is not None:
            return keyword if keyword in callee.params else None
        assert position is not None
        offset = 0
        if callee.is_method and isinstance(call.func, ast.Attribute):
            offset = 1
        index = position + offset
        if index < len(callee.params):
            return callee.params[index]
        return None

    def mutated_params(self) -> Dict[FunctionInfo, Set[str]]:
        """Fixpoint parameter-mutation summary for every function.

        Seeds each function with its syntactically direct mutations, then
        propagates through call edges: if ``helper`` mutates its ``rows``
        parameter and ``f`` passes its own parameter ``block`` into that
        slot, ``block`` is mutated by ``f`` too.
        """
        summary: Dict[FunctionInfo, Set[str]] = {
            info: _direct_mutations(info) for info in self.functions
        }
        changed = True
        while changed:
            changed = False
            for info in self.functions:
                params = set(info.params)
                for call, callees in self.calls_in(info):
                    for callee in callees:
                        mutated = summary[callee]
                        if not mutated:
                            continue
                        bindings: List[Tuple[ast.AST, Optional[str]]] = [
                            (arg, self.param_for_arg(callee, call, position=i))
                            for i, arg in enumerate(call.args)
                        ]
                        bindings.extend(
                            (kw.value, self.param_for_arg(callee, call, keyword=kw.arg))
                            for kw in call.keywords
                            if kw.arg is not None
                        )
                        for arg, param in bindings:
                            if param is None or param not in mutated:
                                continue
                            if (
                                isinstance(arg, ast.Name)
                                and arg.id in params
                                and arg.id != "self"
                                and arg.id not in summary[info]
                            ):
                                summary[info].add(arg.id)
                                changed = True
        return summary
