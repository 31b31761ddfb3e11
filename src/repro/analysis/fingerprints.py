"""RPR003 — static stage-fingerprint completeness check.

The stage DAG invalidates cached artifacts from *declared* config
fields: each ``stage(name, deps, config_fields, build, unpack)``
declaration in ``experiments/stages.py`` lists the ``config_fields`` its
stage reads, and the stage fingerprint hashes exactly those values.  The
contract only holds if the declaration is complete — a stage function
that reads ``config.cutoff`` without declaring it will happily serve a
stale artifact after ``cutoff`` changes (and a declared-but-unread field
forces spurious rebuilds).  Nothing at runtime can catch this: the stale
path produces *valid-looking* artifacts.

This rule cross-checks the declarations statically.  For every
``stage(...)`` call it collects every attribute read off the config
object in the call itself and in the module-level functions the call
names — including through local aliases (``config = results.config``)
and transitively through the module-level helpers those functions name
— and diffs that set against the call's ``config_fields`` tuple.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import ParsedModule, Violation
from .rules import Rule

#: The stage declaration: ``stage(name, deps, config_fields, build, unpack)``.
_DECLARATION = "stage"


def _string_elements(node: Optional[ast.expr]) -> Optional[Set[str]]:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: Set[str] = set()
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        values.add(element.value)
    return values


class _ConfigReadCollector(ast.NodeVisitor):
    """Attribute reads off the config object inside one function or call.

    Recognises reads through the conventional alias (``config =
    results.config`` then ``config.field``) and direct chains ending in
    ``.config`` (``results.config.field``).  Method calls on the config
    (``config.cache_key()``) are not field reads.  Also records which
    module-level functions the code names (calls or passes on), for the
    transitive pass.
    """

    def __init__(self, module_functions: Set[str]) -> None:
        self.module_functions = module_functions
        self.aliases: Set[str] = {"config"}
        self.reads: Dict[str, int] = {}
        self.calls: Set[str] = set()
        self._call_funcs: Set[int] = set()

    def collect(self, function: ast.AST) -> None:
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                self._call_funcs.add(id(node.func))
            elif isinstance(node, ast.Name) and node.id in self.module_functions:
                self.calls.add(node.id)
        # Alias pass before the read pass so order of statements cannot
        # hide a read (aliases are conventionally bound first anyway).
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and self._is_config_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.aliases.add(target.id)
        for node in ast.walk(function):
            if not isinstance(node, ast.Attribute):
                continue
            if not self._is_config_expr(node.value):
                continue
            if id(node) in self._call_funcs:
                continue  # config.method(...) — not a field read
            self.reads.setdefault(node.attr, node.lineno)

    def _is_config_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.aliases
        return isinstance(node, ast.Attribute) and node.attr == "config"


class StageFingerprintRule(Rule):
    """RPR003 — a stage's declared config_fields must match its config reads."""

    id = "RPR003"
    title = "stage fingerprint / config-read mismatch"
    rationale = """
    Stage artifact caching fingerprints each stage from its declared
    `config_fields`.  A stage function reading an undeclared field means
    the fingerprint misses it: edit that field and the stage serves a
    stale cached artifact — a silent wrong-results bug no test can see
    because the artifact itself is well-formed.  The inverse (declared
    but never read) causes spurious rebuilds.  For every
    `stage(name, deps, config_fields, build, unpack)` declaration this
    rule statically collects every config attribute read in the call and
    in the functions it names (following local aliases and references to
    module-level helpers) and requires exact agreement with
    `config_fields`.
    """

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        specs = self._parse_specs(module.tree)
        if specs is None:
            return  # module declares no stages — rule not applicable
        functions: Dict[str, ast.AST] = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        reads_cache: Dict[str, Dict[str, int]] = {}

        def reads_of(node: ast.AST, seen: Tuple[str, ...]) -> Dict[str, int]:
            collector = _ConfigReadCollector(set(functions))
            collector.collect(node)
            merged = dict(collector.reads)
            for callee in sorted(collector.calls):
                for attr, line in function_reads(callee, seen).items():
                    merged.setdefault(attr, line)
            return merged

        def function_reads(name: str, seen: Tuple[str, ...]) -> Dict[str, int]:
            if name in seen:
                return {}
            if name not in reads_cache:
                reads_cache[name] = reads_of(functions[name], seen + (name,))
            return reads_cache[name]

        for stage, declared, call in specs:
            reads = reads_of(call, ())
            for attr in sorted(set(reads) - declared):
                yield Violation(
                    rule=self.id,
                    path=str(module.path),
                    line=reads[attr],
                    col=1,
                    message=(
                        f"stage '{stage}' reads config.{attr} but does not declare "
                        "it in config_fields — its fingerprint misses this field, "
                        "so a config change would serve a stale cached artifact"
                    ),
                )
            for attr in sorted(declared - set(reads)):
                yield self.violation(
                    module,
                    call,
                    f"stage '{stage}' declares config field '{attr}' in "
                    "config_fields but never reads it — fingerprint churn forces "
                    "needless rebuilds",
                )

    # -- parsing helpers --------------------------------------------------- #
    def _parse_specs(
        self, tree: ast.Module
    ) -> Optional[List[Tuple[str, Set[str], ast.Call]]]:
        """Each ``stage(name, deps, config_fields, ...)`` call with a literal
        name and field tuple, in source order; ``None`` if there is none."""
        specs: List[Tuple[str, Set[str], ast.Call]] = []
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == _DECLARATION
                and len(node.args) >= 3
            ):
                continue
            name = node.args[0]
            fields = _string_elements(node.args[2])
            if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
                continue
            if fields is None:
                continue  # dynamic declaration — out of static reach
            specs.append((name.value, fields, node))
        return sorted(specs, key=lambda spec: spec[2].lineno) or None
