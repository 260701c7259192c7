"""RA002 — parallel-determinism audit.

``repro.parallel`` guarantees byte-identical results for any worker
count, which holds only if dispatched workers are pure with respect to
process-global state: no RNG draws (worker draw *order* is
scheduling-dependent) and no ambient-context installation (the
recorder, or the run configuration — the harness itself installs both
deterministically around each task). This rule is the static twin of
the runtime n_jobs byte-identity tests: it finds every function
dispatched through ``parallel_map_chunks(...)`` or
``get_backend(...).map(...)``, walks the call graph reachable from it,
and flags

* RNG use: ``np.random.*``, ``default_rng(...)``,
  ``check_random_state(...)``, or any call on a receiver named like a
  generator (``rng``, ``_rng``, ``random_state``);
* ambient-context mutation: ``use_recorder`` / ``recording`` /
  ``use_config`` calls (or its ``use_fault_policy`` / ``use_n_jobs``
  forwards), or ``.set(...)`` on a module-level ``ContextVar``.

Functions defined inside ``repro.parallel`` itself are exempt (the
sanctioned harness installs worker-local context on purpose) but are
still traversed, so a violation *reached through* the harness is found.
Incrementing counters on the worker-local recorder is deliberately
allowed — the harness merges counters deterministically.

Dynamically-typed worker references (``estimator.evaluate``) are
expanded over every concrete scanned class defining that method, so the
audit covers all estimators a dispatch site could receive.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.astkit import ModuleInfo
from tools.repro_audit.core import AuditRule, Finding, register
from tools.repro_audit.graph import (
    CallGraph,
    CallTarget,
    FuncNode,
    attr_chain,
)

__all__ = ["ParallelDeterminismAudit", "expand_dynamic", "worker_roots"]

#: Call names that install ambient context (contextvar mutation).
CONTEXT_INSTALLERS = frozenset(
    {"use_recorder", "recording", "use_config", "use_fault_policy", "use_n_jobs"}
)

#: Receiver names that identify a random generator object.
RNG_RECEIVERS = frozenset(
    {"rng", "_rng", "random_state", "_random_state", "generator"}
)

#: Functions creating or seeding generators.
RNG_FACTORIES = frozenset({"default_rng", "check_random_state", "RandomState"})

#: Module prefix of the sanctioned dispatch harness.
HARNESS_PREFIX = "repro.parallel"

#: Cap on contract expansion of a dynamically-typed worker reference.
_MAX_EXPANSION = 24


def expand_dynamic(graph: CallGraph, expr: ast.expr) -> list[CallTarget]:
    """Expand a dynamic ``obj.method`` worker reference over every
    concrete scanned class defining that method (capped). Shared by the
    worker-rooted rules (RA002 determinism, RA007 merge contracts)."""
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        if chain and chain[-1] == "partial" and expr.args:
            return expand_dynamic(graph, expr.args[0])
        return []
    if not isinstance(expr, ast.Attribute):
        return []
    method = expr.attr
    targets: list[CallTarget] = []
    for cls in graph.classes:
        if graph.is_abstract(cls):
            continue
        found = graph.lookup_method(cls, method)
        if found is not None:
            targets.append(CallTarget(found, cls))
        if len(targets) >= _MAX_EXPANSION:
            break
    return targets


def _param_names(node: ast.FunctionDef) -> list[str]:
    args = node.args
    return [a.arg for a in args.posonlyargs + args.args]


def _chase_param_workers(
    graph: CallGraph, func: FuncNode, param: str
) -> list[tuple[CallTarget, str]]:
    """Worker targets bound to ``param`` by in-project callers of ``func``.

    ``shard_map(plan, per_chunk, ...)`` forwards a caller-supplied
    callable into ``parallel_map_chunks``; the dispatched per-chunk
    function is whatever each call site passes. One level of
    indirection is chased: the matching positional/keyword argument at
    every call resolving to ``func`` is unwrapped in the *caller's*
    context.
    """
    positional = _param_names(func.node)
    if param in positional:
        position: int | None = positional.index(param)
    elif param in [a.arg for a in func.node.args.kwonlyargs]:
        position = None
    else:
        return []
    if func.cls is not None:
        # Bound-call positions are receiver-shifted; the repo's
        # forwarding dispatchers are module-level, so keep this simple.
        return []
    found: list[tuple[CallTarget, str]] = []
    for caller in graph.iter_functions():
        env = graph.local_types(caller, caller.cls)
        for call in graph.calls_of(caller):
            if not any(
                t.func.node is func.node
                for t in graph.resolve_call(call, caller, caller.cls, env)
            ):
                continue
            arg: ast.expr | None = None
            if position is not None and position < len(call.args):
                arg = call.args[position]
            else:
                for kw in call.keywords:
                    if kw.arg == param:
                        arg = kw.value
            if arg is None:
                continue
            targets = graph.unwrap_callable(arg, caller, caller.cls, env)
            if not targets:
                targets = expand_dynamic(graph, arg)
            bound_frame = f"worker bound at {caller.frame(call.lineno)}"
            found.extend((t, bound_frame) for t in targets)
    return found


def worker_roots(
    graph: CallGraph,
) -> list[tuple[FuncNode, CallTarget, tuple[str, ...]]]:
    """``(dispatcher, worker, trace)`` per ``repro.parallel`` dispatch.

    Shared by the worker-rooted rule families (RA002 determinism, RA007
    merge contracts, RA009 races, RA010 RNG ordering). Worker
    references are resolved directly (``unwrap_callable``), expanded
    over concrete classes when dynamically typed (``expand_dynamic``),
    and — when the dispatch site forwards one of its own parameters —
    chased one call level up to the sites that bound the callable.
    The dispatcher (the function containing the dispatch call) lets
    callers thread worker reachability into other reachability domains
    (RA010 extends entry-point reachability through dispatch edges).
    """
    roots: list[tuple[FuncNode, CallTarget, tuple[str, ...]]] = []
    for func, call in graph.dispatch_sites():
        if not call.args:
            continue
        env = graph.local_types(func, func.cls)
        worker_expr = call.args[0]
        dispatch_frame = f"dispatched by {func.frame(call.lineno)}"
        targets = graph.unwrap_callable(worker_expr, func, func.cls, env)
        if not targets:
            targets = expand_dynamic(graph, worker_expr)
        for target in targets:
            roots.append((func, target, (dispatch_frame,)))
        params = _param_names(func.node)
        params += [arg.arg for arg in func.node.args.kwonlyargs]
        for name in _forwarded_names(worker_expr, resolved=bool(targets)):
            if name not in params:
                continue
            for target, bound_frame in _chase_param_workers(
                graph, func, name
            ):
                roots.append((func, target, (dispatch_frame, bound_frame)))
    return roots


def _forwarded_names(worker_expr: ast.expr, *, resolved: bool) -> list[str]:
    """Names a dispatched worker expression may forward from its caller.

    An unresolved bare name is itself the forwarded callable; a
    ``partial(f, ...)`` forwards every name it binds as an argument
    (``shard_map`` binds the caller's per-chunk function and fold into
    its shard runner), which run inside the worker too.
    """
    if isinstance(worker_expr, ast.Name):
        return [] if resolved else [worker_expr.id]
    if isinstance(worker_expr, ast.Call):
        chain = attr_chain(worker_expr.func)
        if chain and chain[-1] == "partial":
            bound = [*worker_expr.args[1:]]
            bound += [kw.value for kw in worker_expr.keywords]
            return [arg.id for arg in bound if isinstance(arg, ast.Name)]
    return []


def _rng_call(chain: list[str]) -> str | None:
    """Why this name chain is an RNG call, or None."""
    if chain[-1] in RNG_FACTORIES:
        return f"creates/seeds a generator via {chain[-1]}()"
    if "random" in chain[:-1]:
        return f"draws from the global numpy RNG ({'.'.join(chain)})"
    if len(chain) >= 2 and any(part in RNG_RECEIVERS for part in chain[:-1]):
        return f"draws from a generator ({'.'.join(chain)})"
    return None


@register
class ParallelDeterminismAudit(AuditRule):
    code = "RA002"
    summary = (
        "no RNG use or ambient-context mutation reachable from functions "
        "dispatched through repro.parallel workers"
    )

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        roots = [
            (target, trace) for _, target, trace in worker_roots(graph)
        ]
        if not roots:
            return
        # Calling an installer IS the violation (flagged at the call
        # site); its body legitimately mutates the contextvar, so don't
        # descend into it.
        reached = graph.reachable(
            roots, prune=lambda t: t.func.name in CONTEXT_INSTALLERS
        )
        seen: set[tuple[str, int]] = set()
        for target, trace in reached.values():
            if target.func.module.module.startswith(HARNESS_PREFIX):
                continue
            for finding in self._check_function(target.func, trace):
                key = (finding.path, finding.line)
                if key not in seen:
                    seen.add(key)
                    yield finding

    # ------------------------------------------------------------------

    def _check_function(
        self, func: FuncNode, trace: tuple[str, ...]
    ) -> Iterator[Finding]:
        info = func.module
        module_scope_exprs = self._contextvar_names(info)
        for call in ast.walk(func.node):
            if not isinstance(call, ast.Call):
                continue
            chain = attr_chain(call.func)
            if not chain:
                continue
            why = _rng_call(chain)
            if why is not None:
                yield self._site_finding(
                    info, func, call, trace, f"worker-reachable RNG use: {why}"
                )
                continue
            if chain[-1] in CONTEXT_INSTALLERS:
                yield self._site_finding(
                    info,
                    func,
                    call,
                    trace,
                    "worker-reachable ambient-context mutation: "
                    f"{chain[-1]}() installs process-wide state",
                )
                continue
            if (
                chain[-1] == "set"
                and len(chain) == 2
                and chain[0] in module_scope_exprs
            ):
                yield self._site_finding(
                    info,
                    func,
                    call,
                    trace,
                    f"worker-reachable ContextVar mutation: {chain[0]}.set()",
                )

    @staticmethod
    def _contextvar_names(info: ModuleInfo) -> set[str]:
        names: set[str] = set()
        for stmt in info.tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Call
            ):
                chain = attr_chain(stmt.value.func)
                if chain and chain[-1] == "ContextVar":
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names

    def _site_finding(
        self,
        info: ModuleInfo,
        func: FuncNode,
        call: ast.Call,
        trace: tuple[str, ...],
        message: str,
    ) -> Finding:
        chain = attr_chain(call.func) or ["<call>"]
        return self.finding(
            info,
            call,
            f"{message} (in {func.qualname})",
            anchor=f"{func.qualname}:{'.'.join(chain)}",
            trace=trace + (func.frame(call.lineno),),
        )
