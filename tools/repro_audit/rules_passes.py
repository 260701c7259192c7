"""RA001 — pass-count audit.

The paper's efficiency claim is a *scan budget*: density-biased
sampling costs one fit pass plus a bounded number of further dataset
scans. This rule makes the budget a static contract. For every audited
class (samplers, density estimators, outlier detectors) it

1. counts the ``DataStream`` scans statically reachable from the
   class's primary entry point (``sample`` / ``fit`` / ``detect``),
   attributed to the ``recorder.phase(...)`` block they execute under;
2. compares the result against the class's declared ``__n_passes__``
   (an int, or a ``{phase: count}`` dict) and against the
   ``Dataset passes: N`` line of the class docstring;
3. reports any scan reachable *inside a loop* as unbounded.

Scan intrinsics are ``for ... in <stream>``, ``.iter_with_offsets()``
and ``.materialize()`` on stream-typed receivers, comprehensions
iterating a stream, and ``shard_map(...)`` — the sharded fan-out of
one pass (its tasks partition the chunk sequence, so the dispatch
costs one pass total). Stream-typed values are inferred from parameter
names/annotations (``stream``, ``source``, ``DataStream``), stream
factory calls (``as_stream`` / ``_as_stream``) and constructor calls of
``DataStream`` subclasses, propagated through local assignment.

Calls resolved in-project contribute their callee's counts (memoized,
cycle-safe), with unphased callee scans attributed to the caller's
current phase. A *dynamically-typed* ``obj.fit(<stream>)`` call that
resolution cannot pin down is charged the estimator ABC's declared
contract (``DensityEstimator.__n_passes__``, default 1) — the audited
guarantee is then "one pass assuming the estimator honours its own
contract", a documented under-approximation (DESIGN.md §6).
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterator

from tools.repro_audit.core import AuditRule, Finding, register
from tools.repro_audit.graph import (
    CallGraph,
    CallTarget,
    ClassNode,
    FuncNode,
    attr_chain,
    is_dispatch_call,
)

__all__ = [
    "PassCounter",
    "ScanSite",
    "audited_entries",
    "entry_pass_counts",
]

#: Method calls that consume one full pass when the receiver is a stream.
INTRINSIC_SCAN_ATTRS = frozenset({"iter_with_offsets", "materialize"})

#: Parameter names treated as stream-typed regardless of annotation.
STREAM_PARAM_NAMES = frozenset({"stream", "source", "data_stream"})

#: Calls whose result is a stream (wrapping, not scanning).
STREAM_FACTORY_NAMES = frozenset({"as_stream", "_as_stream"})

#: Root of the stream class hierarchy.
STREAM_BASE = "DataStream"

#: Estimator ABC whose ``__n_passes__`` is the assumed contract at
#: dynamically-typed ``.fit(<stream>)`` call sites.
ESTIMATOR_BASE = "DensityEstimator"

_DOC_PASSES_RE = re.compile(r"Dataset passes:\s*(\d+)")


@dataclass(frozen=True)
class ScanSite:
    """One statically-identified dataset scan, with its "why" trace."""

    path: str
    line: int
    kind: str
    phase: str | None
    #: Call frames from the audited entry down to the scanning function.
    trace: tuple[str, ...] = ()


# Counts are ``{phase or None: scans}``; ``math.inf`` marks unbounded.
Counts = dict


def _add(a: Counts, b: Counts) -> Counts:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def _bmax(a: Counts, b: Counts) -> Counts:
    out = dict(a)
    for k, v in b.items():
        out[k] = max(out.get(k, 0), v)
    return out


def _total(counts: Counts) -> float:
    return sum(counts.values()) if counts else 0


def _rephase(counts: Counts, phase: str | None) -> Counts:
    """Attribute a callee's unphased scans to the caller's phase."""
    if phase is None or None not in counts:
        return counts
    out = {k: v for k, v in counts.items() if k is not None}
    out[phase] = out.get(phase, 0) + counts[None]
    return out


@dataclass
class _State:
    """Mutable per-function analysis state (forward flow)."""

    func: FuncNode
    self_cls: ClassNode | None
    streams: set = field(default_factory=set)
    types: dict = field(default_factory=dict)


class PassCounter:
    """Memoized flow-sensitive dataset-scan counter over a call graph."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self._memo: dict[tuple[int, int], tuple[Counts, tuple[ScanSite, ...]]] = {}
        self._active: set[tuple[int, int]] = set()
        self._fit_contract = self._estimator_contract()

    def _estimator_contract(self) -> int:
        """Declared ``__n_passes__`` of the estimator ABC (default 1)."""
        for cls in self.graph.classes_by_name.get(ESTIMATOR_BASE, []):
            expr = self.graph.declared_attr(cls, "__n_passes__")
            if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
                return expr.value
        return 1

    # ------------------------------------------------------------------

    def count_target(
        self, target: CallTarget
    ) -> tuple[Counts, tuple[ScanSite, ...]]:
        """Scans performed by one (function, receiver class) node."""
        key = target.key
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._active:
            # Recursive helper: charge the cycle zero (under-approx).
            return {}, ()
        self._active.add(key)
        state = _State(func=target.func, self_cls=target.self_cls)
        self._seed_params(state)
        result = self._count_body(list(target.func.node.body), state, None)
        self._active.discard(key)
        self._memo[key] = result
        return result

    def _seed_params(self, state: _State) -> None:
        args = state.func.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg in STREAM_PARAM_NAMES or self._stream_annotation(
                arg.annotation
            ):
                state.streams.add(arg.arg)

    @staticmethod
    def _stream_annotation(annotation: ast.expr | None) -> bool:
        if annotation is None:
            return False
        for node in ast.walk(annotation):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(name, str) and "Stream" in name:
                return True
        return False

    # ------------------------------------------------------------------
    # Statements

    def _count_body(
        self, stmts: list, state: _State, phase: str | None
    ) -> tuple[Counts, tuple[ScanSite, ...]]:
        counts: Counts = {}
        sites: list[ScanSite] = []
        for stmt in stmts:
            c, s = self._count_stmt(stmt, state, phase)
            counts = _add(counts, c)
            sites.extend(s)
        return counts, tuple(sites)

    def _count_stmt(
        self, stmt: ast.stmt, state: _State, phase: str | None
    ) -> tuple[Counts, tuple[ScanSite, ...]]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return {}, ()
        if isinstance(stmt, ast.Assign):
            counts, sites = self._scan_node(stmt.value, state, phase)
            self._bind(stmt.targets, stmt.value, state)
            return counts, sites
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return {}, ()
            counts, sites = self._scan_node(stmt.value, state, phase)
            self._bind([stmt.target], stmt.value, state)
            return counts, sites
        if isinstance(stmt, (ast.If,)):
            counts, sites = self._scan_node(stmt.test, state, phase)
            body = self._count_body(stmt.body, state, phase)
            orelse = self._count_body(stmt.orelse, state, phase)
            return (
                _add(counts, _bmax(body[0], orelse[0])),
                sites + body[1] + orelse[1],
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            counts, sites = self._scan_node(stmt.iter, state, phase)
            if self._is_stream_expr(stmt.iter, state):
                counts = _add(counts, {phase: 1})
                sites = sites + (
                    ScanSite(
                        path=state.func.module.display_path,
                        line=stmt.iter.lineno,
                        kind="for-loop over stream",
                        phase=phase,
                    ),
                )
            body = self._loopify(self._count_body(stmt.body, state, phase))
            orelse = self._count_body(stmt.orelse, state, phase)
            return (
                _add(_add(counts, body[0]), orelse[0]),
                sites + body[1] + orelse[1],
            )
        if isinstance(stmt, ast.While):
            counts, sites = self._scan_node(stmt.test, state, phase)
            body = self._loopify(self._count_body(stmt.body, state, phase))
            return _add(counts, body[0]), sites + body[1]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            counts: Counts = {}
            sites: tuple[ScanSite, ...] = ()
            inner_phase = phase
            for item in stmt.items:
                label = self._phase_label(item.context_expr)
                if label is not None:
                    inner_phase = label
                else:
                    c, s = self._scan_node(item.context_expr, state, phase)
                    counts = _add(counts, c)
                    sites = sites + s
            body = self._count_body(stmt.body, state, inner_phase)
            return _add(counts, body[0]), sites + body[1]
        if isinstance(stmt, ast.Try):
            counts, sites = self._count_body(stmt.body, state, phase)
            handlers: Counts = {}
            for handler in stmt.handlers:
                h = self._count_body(handler.body, state, phase)
                handlers = _bmax(handlers, h[0])
                sites = sites + h[1]
            for extra in (stmt.orelse, stmt.finalbody):
                e = self._count_body(extra, state, phase)
                counts = _add(counts, e[0])
                sites = sites + e[1]
            return _add(counts, handlers), sites
        if isinstance(stmt, ast.Return):
            return self._scan_node(stmt.value, state, phase)
        if isinstance(stmt, (ast.Expr, ast.AugAssign)):
            value = stmt.value
            return self._scan_node(value, state, phase)
        if isinstance(stmt, ast.Raise):
            counts, sites = self._scan_node(stmt.exc, state, phase)
            cause = self._scan_node(stmt.cause, state, phase)
            return _add(counts, cause[0]), sites + cause[1]
        if isinstance(stmt, ast.Assert):
            return self._scan_node(stmt.test, state, phase)
        return {}, ()

    @staticmethod
    def _loopify(
        result: tuple[Counts, tuple[ScanSite, ...]]
    ) -> tuple[Counts, tuple[ScanSite, ...]]:
        """A scan inside a loop body executes an unbounded number of times."""
        counts, sites = result
        if _total(counts) == 0:
            return result
        return (
            {k: math.inf for k, v in counts.items() if v},
            tuple(
                replace(site, kind=f"{site.kind} (inside loop)")
                for site in sites
            ),
        )

    def _bind(self, targets: list, value: ast.expr, state: _State) -> None:
        """Forward-propagate stream-ness and constructor types."""
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        name = targets[0].id
        if self._is_stream_expr(value, state):
            state.streams.add(name)
            return
        state.streams.discard(name)
        constructed = self.graph._constructed_class(
            value, self.graph.scope(state.func.module)
        )
        if constructed is not None:
            state.types[name] = constructed
        else:
            state.types.pop(name, None)

    @staticmethod
    def _phase_label(expr: ast.expr) -> str | None:
        """``recorder.phase("draw")`` -> ``"draw"``."""
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "phase"
            and expr.args
            and isinstance(expr.args[0], ast.Constant)
            and isinstance(expr.args[0].value, str)
        ):
            return expr.args[0].value
        return None

    # ------------------------------------------------------------------
    # Expressions

    def _is_stream_expr(self, expr: ast.expr | None, state: _State) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in state.streams
        if isinstance(expr, ast.IfExp):
            return self._is_stream_expr(expr.body, state) or self._is_stream_expr(
                expr.orelse, state
            )
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain and chain[-1] in STREAM_FACTORY_NAMES:
                return True
            constructed = self.graph._constructed_class(
                expr, self.graph.scope(state.func.module)
            )
            if constructed is not None and (
                constructed.name == STREAM_BASE
                or self.graph.inherits_from(constructed, STREAM_BASE)
            ):
                return True
        return False

    def _scan_node(
        self, node: ast.AST | None, state: _State, phase: str | None
    ) -> tuple[Counts, tuple[ScanSite, ...]]:
        if node is None:
            return {}, ()
        if isinstance(node, ast.Call):
            return self._scan_call(node, state, phase)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            counts: Counts = {}
            sites: tuple[ScanSite, ...] = ()
            for gen in node.generators:
                if self._is_stream_expr(gen.iter, state):
                    counts = _add(counts, {phase: 1})
                    sites = sites + (
                        ScanSite(
                            path=state.func.module.display_path,
                            line=gen.iter.lineno,
                            kind="comprehension over stream",
                            phase=phase,
                        ),
                    )
                else:
                    c, s = self._scan_node(gen.iter, state, phase)
                    counts = _add(counts, c)
                    sites = sites + s
            # Element/condition scans are not multiplied by the loop —
            # a deliberate under-approximation (no such idiom in-tree).
            return counts, sites
        if isinstance(node, ast.IfExp):
            counts, sites = self._scan_node(node.test, state, phase)
            body = self._scan_node(node.body, state, phase)
            orelse = self._scan_node(node.orelse, state, phase)
            return (
                _add(counts, _bmax(body[0], orelse[0])),
                sites + body[1] + orelse[1],
            )
        counts = {}
        sites = ()
        for child in ast.iter_child_nodes(node):
            c, s = self._scan_node(child, state, phase)
            counts = _add(counts, c)
            sites = sites + s
        return counts, sites

    def _scan_call(
        self, call: ast.Call, state: _State, phase: str | None
    ) -> tuple[Counts, tuple[ScanSite, ...]]:
        counts: Counts = {}
        sites: tuple[ScanSite, ...] = ()

        # Arguments first (e.g. ``np.vstack(list(source.iter_with_offsets()))``).
        for arg in call.args:
            c, s = self._scan_node(arg, state, phase)
            counts, sites = _add(counts, c), sites + s
        for kw in call.keywords:
            c, s = self._scan_node(kw.value, state, phase)
            counts, sites = _add(counts, c), sites + s

        func_expr = call.func
        # Intrinsic: .iter_with_offsets() / .materialize() on a stream.
        if (
            isinstance(func_expr, ast.Attribute)
            and func_expr.attr in INTRINSIC_SCAN_ATTRS
            and self._is_stream_expr(func_expr.value, state)
        ):
            return (
                _add(counts, {phase: 1}),
                sites
                + (
                    ScanSite(
                        path=state.func.module.display_path,
                        line=call.lineno,
                        kind=f".{func_expr.attr}()",
                        phase=phase,
                    ),
                ),
            )

        # Intrinsic: shard_map(...) — a shard fan-out partitions one
        # pass's chunk sequence across its tasks, so the dispatch reads
        # each row of the plan's stream exactly once regardless of the
        # shard or worker count (repro.sharding.runner).
        chain = attr_chain(func_expr)
        if chain and chain[-1] == "shard_map":
            return (
                _add(counts, {phase: 1}),
                sites
                + (
                    ScanSite(
                        path=state.func.module.display_path,
                        line=call.lineno,
                        kind="shard_map() fan-out",
                        phase=phase,
                    ),
                ),
            )

        # Parallel dispatch: the worker runs once per chunk.
        if self._is_dispatch(call):
            c, s = self._worker_counts(call, state, phase)
            return _add(counts, c), sites + s

        # In-project resolution.
        targets = self.graph.resolve_call(
            call, state.func, state.self_cls, state.types
        )
        if targets:
            target = targets[0]
            callee_counts, callee_sites = self.count_target(target)
            callee_counts = _rephase(callee_counts, phase)
            hop = state.func.frame(call.lineno)
            for site in callee_sites:
                sites = sites + (
                    replace(
                        site,
                        phase=site.phase if site.phase is not None else phase,
                        trace=(hop,) + site.trace,
                    ),
                )
            return _add(counts, callee_counts), sites

        # Unresolved ``obj.fit(<stream>)``: charge the estimator contract.
        if (
            isinstance(func_expr, ast.Attribute)
            and func_expr.attr == "fit"
            and self._passes_stream(call, state)
        ):
            return (
                _add(counts, {phase: self._fit_contract}),
                sites
                + (
                    ScanSite(
                        path=state.func.module.display_path,
                        line=call.lineno,
                        kind=(
                            "estimator .fit() contract "
                            f"({ESTIMATOR_BASE}.__n_passes__ = "
                            f"{self._fit_contract})"
                        ),
                        phase=phase,
                    ),
                ),
            )

        # Unresolved call: scan any sub-expressions of the callee itself
        # (e.g. the receiver of a chained call).
        for child in ast.iter_child_nodes(func_expr):
            c, s = self._scan_node(child, state, phase)
            counts, sites = _add(counts, c), sites + s
        return counts, sites

    def _passes_stream(self, call: ast.Call, state: _State) -> bool:
        return any(
            self._is_stream_expr(arg, state) for arg in call.args
        ) or any(
            self._is_stream_expr(kw.value, state) for kw in call.keywords
        )

    @staticmethod
    def _is_dispatch(call: ast.Call) -> bool:
        return is_dispatch_call(call)

    def _worker_counts(
        self, call: ast.Call, state: _State, phase: str | None
    ) -> tuple[Counts, tuple[ScanSite, ...]]:
        """A worker that scans a stream does so once per chunk: unbounded."""
        if not call.args:
            return {}, ()
        workers = self.graph.unwrap_callable(
            call.args[0], state.func, state.self_cls, state.types
        )
        counts: Counts = {}
        sites: tuple[ScanSite, ...] = ()
        hop = state.func.frame(call.lineno)
        for worker in workers:
            wc, ws = self.count_target(worker)
            if _total(wc) == 0:
                continue
            counts = _add(counts, {phase: math.inf})
            for site in ws:
                sites = sites + (
                    replace(
                        site,
                        kind=f"{site.kind} (in parallel worker)",
                        phase=site.phase if site.phase is not None else phase,
                        trace=(hop,) + site.trace,
                    ),
                )
        return counts, sites


# ----------------------------------------------------------------------
# Entry-point discovery and the rule itself


def audited_entries(
    graph: CallGraph,
) -> Iterator[tuple[ClassNode, FuncNode, str]]:
    """(class, entry method, kind) for every class under pass audit.

    * ``OutlierDetector`` subclasses -> ``detect``;
    * ``DensityEstimator`` subclasses -> ``fit``;
    * any class whose ``sample`` method takes a ``stream`` parameter
      -> ``sample`` (the samplers share no ABC).

    Abstract classes and non-library modules (tests, benchmarks,
    examples) are skipped.
    """
    for cls in graph.classes:
        if not cls.module.is_library or graph.is_abstract(cls):
            continue
        if graph.inherits_from(cls, "OutlierDetector"):
            entry = graph.lookup_method(cls, "detect")
            if entry is not None:
                yield cls, entry, "detector"
            continue
        if graph.inherits_from(cls, ESTIMATOR_BASE):
            entry = graph.lookup_method(cls, "fit")
            if entry is not None:
                yield cls, entry, "estimator"
            continue
        entry = graph.lookup_method(cls, "sample")
        if entry is not None and _has_stream_param(entry.node):
            yield cls, entry, "sampler"


def _has_stream_param(node: ast.FunctionDef) -> bool:
    args = node.args
    return any(
        arg.arg in STREAM_PARAM_NAMES
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
    )


def entry_pass_counts(graph: CallGraph, class_name: str) -> Counts:
    """Per-phase static scan counts for one audited class (test hook)."""
    counter = PassCounter(graph)
    for cls, entry, _ in audited_entries(graph):
        if cls.name == class_name:
            counts, _sites = counter.count_target(CallTarget(entry, cls))
            return counts
    raise KeyError(f"no audited entry point found for class {class_name!r}")


def _parse_declared(expr: ast.expr) -> int | dict | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return expr.value
    if isinstance(expr, ast.Dict):
        out: dict = {}
        for key, value in zip(expr.keys, expr.values):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
            ):
                return None
            out[key.value] = value.value
        return out
    return None


def _fmt_counts(counts: Counts) -> str:
    if not counts:
        return "0"
    parts = []
    for key in sorted(counts, key=lambda k: (k is None, k or "")):
        value = counts[key]
        label = key if key is not None else "unphased"
        shown = "unbounded" if math.isinf(value) else str(int(value))
        parts.append(f"{label}={shown}")
    return f"{int(_total(counts)) if not _has_inf(counts) else 'unbounded'} ({', '.join(parts)})"


def _has_inf(counts: Counts) -> bool:
    return any(math.isinf(v) for v in counts.values())


def _site_trace(sites: tuple[ScanSite, ...], limit: int = 8) -> tuple[str, ...]:
    trace: list[str] = []
    for site in sites[:limit]:
        trace.extend(site.trace)
        label = site.phase if site.phase is not None else "unphased"
        trace.append(f"{site.kind} scan [{label}] at {site.path}:{site.line}")
    if len(sites) > limit:
        trace.append(f"... {len(sites) - limit} more scan site(s)")
    return tuple(trace)


@register
class PassCountAudit(AuditRule):
    code = "RA001"
    summary = (
        "samplers/estimators/detectors declare __n_passes__ matching the "
        "statically counted dataset scans (and the docstring states it)"
    )

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        counter = PassCounter(graph)
        for cls, entry, kind in audited_entries(graph):
            counts, sites = counter.count_target(CallTarget(entry, cls))
            anchor = cls.qualname
            symbol = f"{cls.name}.{entry.name}"

            if _has_inf(counts):
                yield self.finding(
                    cls.module,
                    cls.node,
                    f"{symbol} reaches a dataset scan inside a loop: "
                    f"statically unbounded passes ({_fmt_counts(counts)})",
                    anchor=anchor,
                    trace=_site_trace(
                        tuple(
                            s
                            for s in sites
                            if "loop" in s.kind or "worker" in s.kind
                        )
                        or sites
                    ),
                )
                continue

            total = int(_total(counts))
            declared_expr = graph.declared_attr(cls, "__n_passes__")
            declared = (
                _parse_declared(declared_expr)
                if declared_expr is not None
                else None
            )
            if declared_expr is None:
                yield self.finding(
                    cls.module,
                    cls.node,
                    f"{kind} {cls.name} has no __n_passes__ declaration "
                    f"(statically counted {_fmt_counts(counts)} dataset "
                    f"scans from {symbol})",
                    anchor=anchor,
                    trace=_site_trace(sites),
                )
            elif declared is None:
                owner = graph.own_or_inherited_attr_owner(cls, "__n_passes__")
                yield self.finding(
                    (owner or cls).module,
                    (owner or cls).node,
                    f"{cls.name}.__n_passes__ must be an int literal or a "
                    "{str: int} dict literal",
                    anchor=anchor,
                )
            elif isinstance(declared, int):
                if declared != total:
                    yield self.finding(
                        cls.module,
                        cls.node,
                        f"{symbol} statically performs {_fmt_counts(counts)} "
                        f"dataset scans but __n_passes__ declares {declared}",
                        anchor=anchor,
                        trace=_site_trace(sites),
                    )
            else:
                computed = {
                    (k if k is not None else "unphased"): int(v)
                    for k, v in counts.items()
                    if v
                }
                if computed != declared:
                    yield self.finding(
                        cls.module,
                        cls.node,
                        f"{symbol} statically performs {_fmt_counts(counts)} "
                        f"dataset scans but __n_passes__ declares {declared}",
                        anchor=anchor,
                        trace=_site_trace(sites),
                    )

            if declared is not None:
                declared_total = (
                    declared
                    if isinstance(declared, int)
                    else sum(declared.values())
                )
                yield from self._check_docstring(
                    graph, cls, declared_total, anchor
                )

    def _check_docstring(
        self, graph: CallGraph, cls: ClassNode, declared_total: int, anchor: str
    ) -> Iterator[Finding]:
        doc = ast.get_docstring(cls.node)
        match = _DOC_PASSES_RE.search(doc) if doc else None
        if match is None:
            yield self.finding(
                cls.module,
                cls.node,
                f"{cls.name} docstring must state its scan budget with a "
                f'"Dataset passes: {declared_total}" line',
                anchor=f"{anchor}.__doc__",
            )
        elif int(match.group(1)) != declared_total:
            yield self.finding(
                cls.module,
                cls.node,
                f'{cls.name} docstring says "Dataset passes: '
                f'{match.group(1)}" but __n_passes__ totals '
                f"{declared_total}",
                anchor=f"{anchor}.__doc__",
            )
