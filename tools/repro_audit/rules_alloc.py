"""RA006 — quadratic-growth allocation audit.

Flags allocation patterns in library code whose cost grows with the
square of the data they touch:

* a ``concatenate`` / ``vstack`` / ``hstack`` / ``stack`` /
  ``np.append`` call that grows its own operand inside a loop (each
  iteration copies everything accumulated so far);
* any concatenate-family call inside a per-chunk stream loop;
* a concatenate-family call directly wrapping a
  ``parallel_map_chunks(...)`` fan-out, whose output length is known
  up front (preallocate instead).

The runtime backstop is ``tools/bench_gate.py``, whose budgets catch an
accidental quadratic at benchmark sizes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_audit.core import AuditRule, Finding, register
from tools.repro_audit.graph import (
    CallGraph,
    FuncNode,
    attr_chain,
    is_dispatch_call,
)

__all__ = ["QuadraticGrowthAudit"]

#: Concatenate-family reallocation targets.
_CONCAT_FAMILY = frozenset({"concatenate", "vstack", "hstack", "append", "stack"})

#: Parameter names treated as stream-typed.
_STREAM_PARAM_NAMES = frozenset({"stream", "source", "data_stream"})

#: Calls whose result is a stream.
_STREAM_FACTORY_NAMES = frozenset({"as_stream", "_as_stream"})


@register
class QuadraticGrowthAudit(AuditRule):
    code = "RA006"
    summary = (
        "no quadratic-growth allocation patterns: concatenate-family "
        "calls must not grow their own operand in a loop, run per chunk "
        "in a stream loop, or re-collect a parallel fan-out"
    )

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        for func in graph.iter_functions():
            if not func.module.is_library:
                continue
            yield from self._check_function(graph, func)

    def _check_function(
        self, graph: CallGraph, func: FuncNode
    ) -> Iterator[Finding]:
        # (c) concatenate-family directly wrapping a parallel fan-out.
        for call in graph.calls_of(func):
            tail = self._concat_tail(call)
            if tail is None:
                continue
            if any(
                isinstance(arg, ast.Call) and is_dispatch_call(arg)
                for arg in call.args
            ):
                yield self.finding(
                    func.module,
                    call,
                    f"np.{tail}() re-collects a parallel_map_chunks() "
                    "fan-out whose output length is known up front; "
                    "preallocate the output array and fill slices "
                    f"instead (in {func.qualname})",
                    anchor=f"{func.qualname}:{tail}(dispatch)",
                    trace=(func.frame(call.lineno),),
                )
        # (a)/(b): loop-resident reallocation.
        args = func.node.args
        stream_params = {
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if a.arg in _STREAM_PARAM_NAMES
        }
        yield from self._visit(
            func, func.node.body, stream_params, in_loop=False, over_stream=False
        )

    def _visit(
        self,
        func: FuncNode,
        stmts: list,
        stream_params: set,
        *,
        in_loop: bool,
        over_stream: bool,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                stream = over_stream or self._iterates_stream(
                    stmt.iter, stream_params
                )
                yield from self._visit(
                    func,
                    stmt.body,
                    stream_params,
                    in_loop=True,
                    over_stream=stream,
                )
                yield from self._visit(
                    func,
                    stmt.orelse,
                    stream_params,
                    in_loop=in_loop,
                    over_stream=over_stream,
                )
            elif isinstance(stmt, ast.While):
                yield from self._visit(
                    func,
                    stmt.body,
                    stream_params,
                    in_loop=True,
                    over_stream=over_stream,
                )
            elif isinstance(stmt, (ast.If, ast.With, ast.AsyncWith, ast.Try)):
                bodies = [list(getattr(stmt, "body", []))]
                bodies.append(list(getattr(stmt, "orelse", [])))
                bodies.append(list(getattr(stmt, "finalbody", [])))
                for handler in getattr(stmt, "handlers", []):
                    bodies.append(list(handler.body))
                for body in bodies:
                    yield from self._visit(
                        func,
                        body,
                        stream_params,
                        in_loop=in_loop,
                        over_stream=over_stream,
                    )
            elif in_loop and not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from self._check_leaf(func, stmt, over_stream)

    def _check_leaf(
        self, func: FuncNode, stmt: ast.stmt, over_stream: bool
    ) -> Iterator[Finding]:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            tail = self._concat_tail(node)
            if tail is None:
                continue
            grown = self._grows_own_operand(node, stmt)
            if grown is not None:
                yield self.finding(
                    func.module,
                    node,
                    f"np.{tail}() grows its own operand {grown!r} inside "
                    "a loop: quadratic reallocation (each iteration "
                    "copies everything accumulated so far) — collect "
                    "parts and merge once after the loop (in "
                    f"{func.qualname})",
                    anchor=f"{func.qualname}:{tail}:{grown}",
                    trace=(func.frame(node.lineno),),
                )
            elif over_stream:
                yield self.finding(
                    func.module,
                    node,
                    f"np.{tail}() runs once per chunk inside a stream "
                    "loop: repeated array reallocation in a hot path — "
                    "collect parts and merge once after the scan (in "
                    f"{func.qualname})",
                    anchor=f"{func.qualname}:{tail}:per-chunk",
                    trace=(func.frame(node.lineno),),
                )

    @staticmethod
    def _concat_tail(call: ast.Call) -> str | None:
        chain = attr_chain(call.func)
        if not chain or chain[-1] not in _CONCAT_FAMILY:
            return None
        # ``np.append(arr, values)`` reallocates; ``parts.append(x)`` is
        # the list method (one argument), not a copy.
        if chain[-1] == "append" and len(call.args) < 2:
            return None
        return chain[-1]

    @staticmethod
    def _grows_own_operand(call: ast.Call, stmt: ast.stmt) -> str | None:
        """The variable a concat call both reads and reassigns in-place
        (``total = np.concatenate([total, chunk])``)."""
        if not isinstance(stmt, ast.Assign):
            return None
        if not any(node is call for node in ast.walk(stmt.value)):
            return None
        operand_names: set[str] = set()
        for arg in call.args:
            for node in ast.walk(arg):
                if isinstance(node, ast.Name):
                    operand_names.add(node.id)
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id in operand_names:
                return target.id
        return None

    @staticmethod
    def _iterates_stream(iter_expr: ast.expr, stream_params: set) -> bool:
        if isinstance(iter_expr, ast.Name):
            return iter_expr.id in stream_params
        if isinstance(iter_expr, ast.Call):
            chain = attr_chain(iter_expr.func)
            if chain and chain[-1] in _STREAM_FACTORY_NAMES:
                return True
            if (
                isinstance(iter_expr.func, ast.Attribute)
                and iter_expr.func.attr == "iter_with_offsets"
            ):
                value = iter_expr.func.value
                return (
                    isinstance(value, ast.Name) and value.id in stream_params
                )
        return False
