"""RA010 — RNG consumption-order prover.

Byte-identity across ``n_jobs``/``--shards`` rests on one discipline:
every draw from the fitted generator happens on the *coordinator*, in
*stream order*. The runtime tests check this for the configurations CI
runs; this rule proves the shape statically, for all configurations,
with two checks over the inventory of generator draw sites (calls on
``rng``/``_rng``/``random_state``-named receivers and ``np.random``
globals, the same lexicon as RA002):

1. **coordinator-only** — no draw site may be both reachable from a
   public entry point (any ``fit``/``draw``/``plan``/``sample``
   function or method) and reachable from a dispatched parallel worker
   (discovery shared with RA002/RA007 via
   :func:`~tools.repro_audit.rules_parallel.worker_roots`): such a draw
   would execute on a worker with scheduling-dependent order.
2. **deterministic iteration** — a draw inside a loop over an
   order-nondeterministic iterable (a set literal/comprehension or
   ``set(...)``, unsorted ``os.listdir``/``scandir``/``iterdir``/
   ``glob``, ``as_completed``) consumes the generator in a different
   order every run even serially.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_audit.core import AuditRule, Finding, register
from tools.repro_audit.graph import CallGraph, CallTarget, FuncNode, attr_chain
from tools.repro_audit.rules_parallel import (
    CONTEXT_INSTALLERS,
    HARNESS_PREFIX,
    RNG_FACTORIES,
    RNG_RECEIVERS,
    worker_roots,
)

__all__ = ["RngOrderAudit", "ENTRY_NAMES", "draw_descriptor"]

#: Public entry-point names whose reachable draws must stay coordinator-side.
ENTRY_NAMES = frozenset({"fit", "draw", "plan", "sample"})

#: Call tails producing order-nondeterministic iterables.
_NONDET_TAILS = frozenset(
    {"listdir", "scandir", "iterdir", "glob", "iglob", "as_completed", "set"}
)


def draw_descriptor(call: ast.Call) -> str | None:
    """Normalised shape of a generator draw, or None.

    Receiver names are canonicalised (any generator-named receiver
    becomes ``rng``; ``self`` is dropped): ``self._rng.random(...)``
    and ``rng.random(...)`` are both ``rng.random``. Generator
    factories (``default_rng``, ``check_random_state``) are not draws.
    """
    chain = attr_chain(call.func)
    if not chain or chain[-1] in RNG_FACTORIES:
        return None
    prefix = chain[:-1]
    if "random" in prefix:
        return f"np.random.{chain[-1]}"
    if any(part in RNG_RECEIVERS for part in prefix):
        return f"rng.{chain[-1]}"
    return None


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


def _nondet_iterable(expr: ast.expr) -> str | None:
    """Why iterating ``expr`` is order-nondeterministic, or None."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set has no defined iteration order"
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        if chain and chain[-1] in _NONDET_TAILS:
            return f"{chain[-1]}() yields elements in unspecified order"
    return None


@register
class RngOrderAudit(AuditRule):
    code = "RA010"
    summary = (
        "all generator draws reachable from fit/draw/plan/sample entry "
        "points execute on the coordinator, under order-deterministic "
        "iteration"
    )

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        entry_reached = self._entry_reached(graph)
        yield from self._check_coordinator_only(graph, entry_reached)
        yield from self._check_iteration_order(entry_reached)

    # ------------------------------------------------------------------
    # Check 1: entry-reachable draws never run on a worker

    @staticmethod
    def _entry_reached(
        graph: CallGraph,
    ) -> dict[tuple[int, int], tuple[CallTarget, tuple[str, ...]]]:
        roots = [
            (CallTarget(func, func.cls), (f"entry point {func.frame()}",))
            for func in graph.iter_functions()
            if func.name in ENTRY_NAMES
        ]
        reached = dict(graph.reachable(roots))
        # A dispatch site fans control out of the coordinator into its
        # workers; entry reachability must follow that edge too (the
        # dispatched callable is data, not a call, so plain call-graph
        # reachability stops at the dispatch). Iterate to a fixpoint in
        # case an entry-reached worker itself dispatches.
        dispatch_edges = worker_roots(graph)
        while True:
            entry_nodes = {
                id(target.func.node): trace
                for target, trace in reached.values()
            }
            extra = [
                (target, entry_nodes[id(dispatcher.node)] + trace)
                for dispatcher, target, trace in dispatch_edges
                if id(dispatcher.node) in entry_nodes
                and id(target.func.node) not in entry_nodes
            ]
            if not extra:
                return reached
            grown = False
            for key, value in graph.reachable(extra).items():
                if key not in reached:
                    reached[key] = value
                    grown = True
            if not grown:
                return reached

    def _check_coordinator_only(
        self, graph: CallGraph, entry_reached: dict
    ) -> Iterator[Finding]:
        roots = [
            (target, trace) for _, target, trace in worker_roots(graph)
        ]
        if not roots:
            return
        worker_reached = graph.reachable(
            roots, prune=lambda t: t.func.name in CONTEXT_INSTALLERS
        )
        entry_nodes = {
            id(target.func.node): trace
            for target, trace in entry_reached.values()
        }
        seen: set[tuple[str, int]] = set()
        for target, trace in worker_reached.values():
            func = target.func
            if func.module.module.startswith(HARNESS_PREFIX):
                continue
            entry_trace = entry_nodes.get(id(func.node))
            if entry_trace is None:
                continue
            for call in graph.calls_of(func):
                descriptor = draw_descriptor(call)
                if descriptor is None:
                    continue
                key = (func.module.display_path, call.lineno)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    func.module,
                    call,
                    f"generator draw ({descriptor}) in "
                    f"{func.qualname} is reachable from "
                    f"{entry_trace[0]} AND from a parallel worker — "
                    "worker-side draw order is scheduling-dependent, so "
                    "results change with n_jobs",
                    anchor=f"{func.qualname}:worker-draw",
                    trace=trace + (func.frame(call.lineno),),
                )

    # ------------------------------------------------------------------
    # Check 2: draws under order-nondeterministic iteration

    def _check_iteration_order(self, entry_reached: dict) -> Iterator[Finding]:
        seen: set[tuple[str, int]] = set()
        for target, trace in entry_reached.values():
            func = target.func
            for node in _shallow_walk(func.node):
                iters: list[tuple[ast.expr, ast.AST]] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append((node.iter, node))
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp),
                ):
                    iters.extend((gen.iter, node) for gen in node.generators)
                for iter_expr, scope_node in iters:
                    why = _nondet_iterable(iter_expr)
                    if why is None:
                        continue
                    body = (
                        scope_node.body
                        if isinstance(scope_node, (ast.For, ast.AsyncFor))
                        else scope_node
                    )
                    yield from self._flag_draws_in(
                        func, body, why, trace, seen
                    )

    def _flag_draws_in(
        self,
        func: FuncNode,
        body,
        why: str,
        trace: tuple[str, ...],
        seen: set[tuple[str, int]],
    ) -> Iterator[Finding]:
        nodes = body if isinstance(body, list) else [body]
        for node in nodes:
            for sub in _shallow_walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                descriptor = draw_descriptor(sub)
                if descriptor is None:
                    continue
                key = (func.module.display_path, sub.lineno)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    func.module,
                    sub,
                    f"generator draw ({descriptor}) inside an "
                    f"order-nondeterministic loop in {func.qualname}: "
                    f"{why} — the rng consumption order differs run to "
                    "run even serially",
                    anchor=f"{func.qualname}:nondet-iteration-draw",
                    trace=trace + (func.frame(sub.lineno),),
                )
