"""RA009 — shared-state race audit.

``repro.parallel`` promises that worker count is unobservable: the
thread backend runs tasks concurrently in one address space, the
process backend runs them in copies. Either way a worker that *writes*
state the coordinator (or a sibling task) can see breaks the promise —
as a data race under threads, as silently-dropped mutation under
processes. This rule computes a per-function *effect summary* for every
function reachable from a dispatch site (worker discovery shared with
RA002 and RA010 via :func:`~tools.repro_audit.rules_parallel.worker_roots`)
and flags coordinator-visible write effects:

* ``global``/``nonlocal`` rebinding — the write lands in module or
  closure scope, which workers share (threads) or shadow (processes);
* mutation of a *module-level* container (``CACHE.append(...)``,
  ``REGISTRY[key] = ...`` on a name assigned at module scope);
* mutation through a *mutable default argument* — one shared object
  per process, invisible partial state across tasks;
* attribute writes on a *shipped object* (a parameter of the worker) —
  mutated copies die with the process backend's worker;
* element writes into a shared read-only view — a local obtained from
  ``resolve_chunk(...)`` / ``SharedArray.open(...)`` maps the
  coordinator's segment ``mode="r"``; writing through it faults at
  runtime and is flagged here statically.

``self``/``cls`` attribute mutation is deliberately *not* flagged: a
worker method's receiver is treated as its own task-local state. The
``repro.parallel`` harness itself is exempt (it installs worker-local
context on purpose) but is still traversed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_audit.core import AuditRule, Finding, register
from tools.repro_audit.graph import (
    CallGraph,
    CallTarget,
    FuncNode,
    attr_chain,
)
from tools.repro_audit.rules_parallel import (
    CONTEXT_INSTALLERS,
    HARNESS_PREFIX,
    worker_roots,
)

__all__ = ["SharedStateRaceAudit", "MUTATOR_METHODS"]

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "insert",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
    }
)

#: Call tails yielding a read-only shared-memory view of a chunk.
_SHARED_VIEW_TAILS = frozenset({"resolve_chunk"})


def _shallow_walk(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested defs/lambdas."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def _param_names(node: ast.FunctionDef) -> set[str]:
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _local_bindings(node: ast.FunctionDef) -> set[str]:
    """Names bound inside the function body (assignments, loops, withs)."""
    bound: set[str] = set(_param_names(node))
    for sub in _shallow_walk(node):
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [sub.target]
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            targets = [sub.target]
        elif isinstance(sub, ast.comprehension):
            targets = [sub.target]
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            targets = [
                item.optional_vars
                for item in sub.items
                if item.optional_vars is not None
            ]
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    bound.add(leaf.id)
    return bound


def _mutable_default(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        return bool(chain) and chain[-1] in (
            "list",
            "dict",
            "set",
            "defaultdict",
            "deque",
            "bytearray",
        )
    return False


def _defaulted_params(node: ast.FunctionDef) -> dict[str, ast.expr]:
    """Parameter name -> default expression, for mutable defaults only."""
    args = node.args
    positional = args.posonlyargs + args.args
    out: dict[str, ast.expr] = {}
    for arg, default in zip(positional[-len(args.defaults):], args.defaults):
        if _mutable_default(default):
            out[arg.arg] = default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and _mutable_default(default):
            out[arg.arg] = default
    return out


def _write_targets(stmt: ast.AST) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return [stmt.target]
    return []


@register
class SharedStateRaceAudit(AuditRule):
    code = "RA009"
    summary = (
        "parallel workers never write coordinator-visible state (globals, "
        "closures, mutable defaults, shipped objects, shared read-only "
        "views)"
    )

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        roots = [
            (target, trace) for _, target, trace in worker_roots(graph)
        ]
        if not roots:
            return
        reached = graph.reachable(
            roots, prune=lambda t: t.func.name in CONTEXT_INSTALLERS
        )
        seen: set[tuple[str, int, str]] = set()
        for target, trace in reached.values():
            func = target.func
            if func.module.module.startswith(HARNESS_PREFIX):
                continue
            for finding in self._effects(graph, target, trace):
                key = (finding.path, finding.line, finding.anchor)
                if key not in seen:
                    seen.add(key)
                    yield finding

    # ------------------------------------------------------------------
    # Per-function effect summary

    def _effects(
        self, graph: CallGraph, target: CallTarget, trace: tuple[str, ...]
    ) -> Iterator[Finding]:
        func = target.func
        yield from self._scope_rebindings(func, trace)
        yield from self._module_container_mutations(graph, func, trace)
        yield from self._mutable_default_mutations(func, trace)
        yield from self._shipped_object_writes(func, trace)
        yield from self._shared_view_writes(func, trace)

    def _scope_rebindings(
        self, func: FuncNode, trace: tuple[str, ...]
    ) -> Iterator[Finding]:
        declared: dict[str, ast.stmt] = {}
        for node in _shallow_walk(func.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                for name in node.names:
                    declared.setdefault(name, node)
        if not declared:
            return
        for node in _shallow_walk(func.node):
            for target_expr in _write_targets(node):
                for leaf in ast.walk(target_expr):
                    if isinstance(leaf, ast.Name) and leaf.id in declared:
                        decl = declared.pop(leaf.id)
                        kind = (
                            "module-global"
                            if isinstance(decl, ast.Global)
                            else "closure"
                        )
                        yield self.finding(
                            func.module,
                            node,
                            f"worker-reachable {func.qualname} writes "
                            f"{kind} state ({leaf.id}) — coordinator-"
                            "visible under the thread backend, silently "
                            "dropped under the process backend",
                            anchor=f"{func.qualname}:scope-write:{leaf.id}",
                            trace=trace + (func.frame(node.lineno),),
                        )

    def _module_container_mutations(
        self, graph: CallGraph, func: FuncNode, trace: tuple[str, ...]
    ) -> Iterator[Finding]:
        scope = graph.scope(func.module)
        local = _local_bindings(func.node)

        def module_container(name: str) -> bool:
            if name in local or name in ("self", "cls"):
                return False
            entity = scope.get(name)
            # Only names whose module-level binding is a plain assigned
            # value (a container literal / constructor) count; classes,
            # functions and imported modules are not shared mutable
            # state in the sense of this rule.
            return isinstance(entity, ast.expr)

        for node in _shallow_walk(func.node):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if (
                    chain
                    and len(chain) == 2
                    and chain[1] in MUTATOR_METHODS
                    and module_container(chain[0])
                ):
                    yield self.finding(
                        func.module,
                        node,
                        f"worker-reachable {func.qualname} mutates the "
                        f"module-level container {chain[0]} "
                        f"(.{chain[1]}()) — a data race under the thread "
                        "backend, dropped state under the process backend",
                        anchor=f"{func.qualname}:module-mutation:{chain[0]}",
                        trace=trace + (func.frame(node.lineno),),
                    )
            for target_expr in _write_targets(node):
                if (
                    isinstance(target_expr, ast.Subscript)
                    and isinstance(target_expr.value, ast.Name)
                    and module_container(target_expr.value.id)
                ):
                    name = target_expr.value.id
                    yield self.finding(
                        func.module,
                        node,
                        f"worker-reachable {func.qualname} writes into the "
                        f"module-level container {name}[...] — a data "
                        "race under the thread backend, dropped state "
                        "under the process backend",
                        anchor=f"{func.qualname}:module-mutation:{name}",
                        trace=trace + (func.frame(node.lineno),),
                    )

    def _mutable_default_mutations(
        self, func: FuncNode, trace: tuple[str, ...]
    ) -> Iterator[Finding]:
        defaulted = _defaulted_params(func.node)
        if not defaulted:
            return
        flagged: set[str] = set()

        def flag(name: str, node: ast.AST) -> Finding:
            flagged.add(name)
            return self.finding(
                func.module,
                node,
                f"worker-reachable {func.qualname} mutates its mutable "
                f"default argument {name} — one shared object per "
                "process, so tasks observe each other's writes",
                anchor=f"{func.qualname}:default-mutation:{name}",
                trace=trace + (func.frame(getattr(node, "lineno", 1)),),
            )

        for node in _shallow_walk(func.node):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if (
                    chain
                    and len(chain) == 2
                    and chain[1] in MUTATOR_METHODS
                    and chain[0] in defaulted
                    and chain[0] not in flagged
                ):
                    yield flag(chain[0], node)
            for target_expr in _write_targets(node):
                if (
                    isinstance(target_expr, ast.Subscript)
                    and isinstance(target_expr.value, ast.Name)
                    and target_expr.value.id in defaulted
                    and target_expr.value.id not in flagged
                ):
                    yield flag(target_expr.value.id, node)

    def _shipped_object_writes(
        self, func: FuncNode, trace: tuple[str, ...]
    ) -> Iterator[Finding]:
        params = _param_names(func.node) - {"self", "cls"}
        if not params:
            return
        for node in _shallow_walk(func.node):
            for target_expr in _write_targets(node):
                if (
                    isinstance(target_expr, ast.Attribute)
                    and isinstance(target_expr.value, ast.Name)
                    and target_expr.value.id in params
                ):
                    name = target_expr.value.id
                    yield self.finding(
                        func.module,
                        node,
                        f"worker-reachable {func.qualname} writes "
                        f"attribute {name}.{target_expr.attr} on a "
                        "shipped object — the mutation dies with the "
                        "process-backend worker (return the partial state "
                        "instead)",
                        anchor=(
                            f"{func.qualname}:shipped-write:"
                            f"{name}.{target_expr.attr}"
                        ),
                        trace=trace + (func.frame(node.lineno),),
                    )

    def _shared_view_writes(
        self, func: FuncNode, trace: tuple[str, ...]
    ) -> Iterator[Finding]:
        views: set[str] = set()
        for node in _shallow_walk(func.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                chain = attr_chain(node.value.func)
                if chain and (
                    chain[-1] in _SHARED_VIEW_TAILS
                    or (len(chain) >= 2 and chain[-2:] == ["SharedArray", "open"])
                ):
                    for target_expr in node.targets:
                        if isinstance(target_expr, ast.Name):
                            views.add(target_expr.id)
        if not views:
            return
        for node in _shallow_walk(func.node):
            for target_expr in _write_targets(node):
                if (
                    isinstance(target_expr, ast.Subscript)
                    and isinstance(target_expr.value, ast.Name)
                    and target_expr.value.id in views
                ):
                    name = target_expr.value.id
                    yield self.finding(
                        func.module,
                        node,
                        f"worker-reachable {func.qualname} writes into "
                        f"{name}[...], a read-only shared-memory view "
                        "(resolve_chunk / SharedArray.open maps the "
                        "coordinator's segment mode='r')",
                        anchor=f"{func.qualname}:shared-view-write:{name}",
                        trace=trace + (func.frame(node.lineno),),
                    )
