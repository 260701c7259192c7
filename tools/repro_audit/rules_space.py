"""RA005/RA006 — space-complexity audit.

The paper's viability argument is two-sided: a bounded number of
dataset scans (RA001) *and* sublinear working memory — reservoir
centers plus accumulators, never the dataset. This module makes the
memory half a static contract.

``SpaceAnalyzer`` propagates an abstract size through each audited
entry point, over the same call-graph substrate RA001 uses. The size
lattice is the total order

    ``O(1) < O(b) < O(m) < O(chunk) < O(n) < unbounded``

where ``b`` is the requested sample/candidate budget, ``m`` the summary
size (kernels, buckets, bins, reservoir capacity), ``chunk`` one stream
chunk and ``n`` the dataset. Join is ``max``. Transfer functions cover
numpy constructors (``empty``/``zeros``/``ones``/``full``/RNG draws,
sized by classifying the extent expression), ``concatenate``-family
merges, stream materialisation (``list(stream)`` / ``.materialize()``),
masked selection, and cross-chunk accumulation (``list.append`` /
``dict[key] =`` / ``set.update`` / ``heappush`` inside a loop over a
stream). A loop over a call whose first argument is a stream scan — a
per-chunk generator such as ``evaluate_chunks(source.iter_with_offsets(),
...)`` — is a loop over that stream too.

Three *documented approximations* (DESIGN.md §11) keep the analysis
aligned with the paper's expected-case claims:

* **expected-size rule** — an accumulation whose payload is a masked
  selection (``chunk[keep]``, anything derived from ``np.nonzero``) is
  charged ``O(b)``: the paper's expected-sample-size argument, not a
  worst case.
* **windowed accumulation** — an accumulator that is ``.clear()``-ed or
  reassigned inside the same stream loop holds one window: charged
  ``O(chunk)`` joined with the payload size.
* **keyed summaries** — ``dict[key] = ...`` / ``set.add``-style
  accumulation is charged ``O(m)`` (a parameter-bounded key space, the
  grid-cell dictionary idiom), *unless* the payload is list-growth.

``RA005`` compares the per-phase result of every audited entry point
(the RA001 population) against the class's declared ``__space__`` — a
bound string or a ``{phase: bound}`` dict, mirroring ``__n_passes__`` —
and the ``Memory: O(...)`` docstring line. A dynamically-typed
``obj.fit(<stream>)`` / ``obj.evaluate(...)`` call that resolution
cannot pin down is charged the estimator ABC's declared ``__space__``
contract (default ``O(m)``).

``RA006`` flags quadratic-growth allocation patterns in library code:
``concatenate``/``vstack``/``np.append`` growing their own operand
inside a loop, any concatenate-family call inside a per-chunk stream
loop, and a concatenate-family call directly wrapping a
``parallel_map_chunks(...)`` fan-out (whose output length is known up
front — preallocate instead).
"""

from __future__ import annotations

import ast
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
from tools.repro_audit.rules_passes import (
    ESTIMATOR_BASE,
    STREAM_PARAM_NAMES,
    audited_entries,
)

__all__ = [
    "AllocSite",
    "SIZE_NAMES",
    "SpaceAnalyzer",
    "entry_space_bounds",
    "parse_bound",
]

# ----------------------------------------------------------------------
# The size lattice: a total order, join = max.

CONST = 0
B = 1
M = 2
CHUNK = 3
N = 4
UNBOUNDED = 5

SIZE_NAMES = {
    CONST: "O(1)",
    B: "O(b)",
    M: "O(m)",
    CHUNK: "O(chunk)",
    N: "O(n)",
    UNBOUNDED: "unbounded",
}

_BOUND_TOKENS = {
    "1": CONST,
    "b": B,
    "m": M,
    "chunk": CHUNK,
    "n": N,
}

_BOUND_RE = re.compile(r"^O\(\s*([^)]+?)\s*\)$")

#: ``Memory: O(...)`` docstring line (mirrors ``Dataset passes: N``).
_DOC_MEMORY_RE = re.compile(r"Memory:\s*(O\([^)]*\)|unbounded)")


def parse_bound(text: str) -> int | None:
    """``"O(b + m)"`` -> join of its component sizes; None if unknown."""
    text = text.strip()
    if text == "unbounded":
        return UNBOUNDED
    match = _BOUND_RE.match(text)
    if match is None:
        return None
    size = CONST
    for token in match.group(1).split("+"):
        component = _BOUND_TOKENS.get(token.strip())
        if component is None:
            return None
        size = max(size, component)
    return size


# ----------------------------------------------------------------------
# Extent classification vocabulary.

#: Attribute / parameter names whose magnitude is the sample budget b.
B_EXTENT_NAMES = frozenset({"sample_size", "pilot_size", "n_sample_rows"})

#: Names whose magnitude is the summary size m (kernels, bins, buckets).
M_EXTENT_NAMES = frozenset(
    {
        "n_kernels",
        "capacity",
        "n_sample",
        "n_coefficients",
        "bins_per_dim",
        "n_buckets",
        "n_clusters",
        "n_mc",
        "branching_factor",
        "n_trees",
        "max_depth",
        "n_leaves",
        "n_leaves_",
    }
)

#: Array parameters assumed budget-sized (candidate/pilot/center sets).
B_ARRAY_PARAMS = frozenset({"candidates", "centers", "pilot", "sample"})

#: Attribute loads that are summary-sized fitted state.
M_SIZED_ATTRS = frozenset({"centers_", "grid_", "cells_"})

#: Calls that reduce an array to a scalar (or O(1) value).
_REDUCTIONS = frozenset(
    {
        "sum",
        "mean",
        "max",
        "min",
        "std",
        "var",
        "prod",
        "any",
        "all",
        "len",
        "int",
        "float",
        "bool",
        "str",
        "item",
        "count",
    }
)

#: numpy constructors sized by their first (shape) argument.
_SIZED_CONSTRUCTORS = frozenset(
    {"empty", "zeros", "ones", "full", "arange", "linspace"}
)

#: RNG draws sized by their size argument.
_RNG_DRAWS = frozenset(
    {"random", "standard_normal", "normal", "uniform", "integers", "choice"}
)

#: Calls whose result is (join of) their arguments' size.
_SIZE_PRESERVING = frozenset(
    {
        "concatenate",
        "vstack",
        "hstack",
        "stack",
        "append",
        "array",
        "asarray",
        "atleast_2d",
        "copy",
        "astype",
        "ravel",
        "flatten",
        "sort",
        "sorted",
        "argsort",
        "unique",
        "clip",
        "minimum",
        "maximum",
        "abs",
        "floor",
        "ceil",
        "reshape",
        "tolist",
        "transform",
        "where",
    }
)

#: Concatenate-family reallocation targets for RA006.
_CONCAT_FAMILY = frozenset({"concatenate", "vstack", "hstack", "append", "stack"})

#: Accumulating method calls: receiver grows by the payload.
_GROW_METHODS = frozenset({"append", "extend", "add", "update", "heappush"})

#: Method attrs whose receiver is an estimator honouring the ABC
#: ``__space__`` contract when the call cannot be resolved in-project.
_CONTRACT_ATTRS = frozenset({"fit", "evaluate"})

_STREAM_FACTORY_NAMES = frozenset({"as_stream", "_as_stream"})
_STREAM_BASE = "DataStream"


@dataclass(frozen=True)
class AllocSite:
    """One statically-identified allocation/accumulation with its size."""

    path: str
    line: int
    size: int
    kind: str
    phase: str | None
    trace: tuple[str, ...] = ()


# Per-phase joined sizes: {phase or None: size}.
Bounds = dict


def _join(a: Bounds, b: Bounds) -> Bounds:
    out = dict(a)
    for key, value in b.items():
        out[key] = max(out.get(key, CONST), value)
    return out


def _rephase(bounds: Bounds, phase: str | None) -> Bounds:
    """Attribute a callee's unphased allocations to the caller's phase."""
    if phase is None or None not in bounds:
        return bounds
    out = {k: v for k, v in bounds.items() if k is not None}
    out[phase] = max(out.get(phase, CONST), bounds[None])
    return out


def _peak(bounds: Bounds) -> int:
    return max(bounds.values(), default=CONST)


@dataclass
class _State:
    """Mutable per-function analysis state (forward flow)."""

    func: FuncNode
    self_cls: ClassNode | None
    #: Variable name -> abstract size of its value / magnitude.
    sizes: dict = field(default_factory=dict)
    streams: set = field(default_factory=set)
    types: dict = field(default_factory=dict)
    #: Names bound to boolean masks (``keep = rng.random(...) < p``) —
    #: subscripting with one is an expected-size selection.
    masks: set = field(default_factory=set)
    #: Whether the statement under analysis sits in a loop over a stream.
    in_stream_loop: bool = False
    #: Whether it sits in a loop over a masked selection (np.nonzero).
    in_selection_loop: bool = False
    #: Accumulator names cleared/reassigned inside the current loop body.
    windowed: frozenset = frozenset()


class SpaceAnalyzer:
    """Memoized flow-sensitive abstract-size propagation over the graph.

    ``analyze_target`` returns ``(bounds, sites, ret_size)``: the
    per-phase joined allocation sizes, the allocation sites above
    ``O(1)`` (for "why" traces), and the abstract size of the return
    value (propagated to callers).
    """

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self._memo: dict[
            tuple[int, int], tuple[Bounds, tuple[AllocSite, ...], int]
        ] = {}
        self._active: set[tuple[int, int]] = set()
        self._contract = self._estimator_contract()

    def _estimator_contract(self) -> int:
        """Declared ``__space__`` of the estimator ABC (default O(m))."""
        for cls in self.graph.classes_by_name.get(ESTIMATOR_BASE, []):
            expr = self.graph.declared_attr(cls, "__space__")
            if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                parsed = parse_bound(expr.value)
                if parsed is not None:
                    return parsed
        return M

    # ------------------------------------------------------------------

    def analyze_target(
        self, target: CallTarget
    ) -> tuple[Bounds, tuple[AllocSite, ...], int]:
        key = target.key
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._active:
            # Recursive helper: charge the cycle O(1) (under-approx).
            return {}, (), CONST
        self._active.add(key)
        state = _State(func=target.func, self_cls=target.self_cls)
        self._seed_params(state)
        bounds, sites, ret = self._analyze_body(
            list(target.func.node.body), state, None
        )
        self._active.discard(key)
        result = (bounds, sites, ret)
        self._memo[key] = result
        return result

    def _seed_params(self, state: _State) -> None:
        args = state.func.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg in STREAM_PARAM_NAMES or self._stream_annotation(
                arg.annotation
            ):
                state.streams.add(arg.arg)
            elif arg.arg in B_ARRAY_PARAMS:
                state.sizes[arg.arg] = B

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

    def _analyze_body(
        self, stmts: list, state: _State, phase: str | None
    ) -> tuple[Bounds, tuple[AllocSite, ...], int]:
        bounds: Bounds = {}
        sites: list[AllocSite] = []
        ret = CONST
        for stmt in stmts:
            b, s, r = self._analyze_stmt(stmt, state, phase)
            bounds = _join(bounds, b)
            sites.extend(s)
            ret = max(ret, r)
        return bounds, tuple(sites), ret

    def _analyze_stmt(
        self, stmt: ast.stmt, state: _State, phase: str | None
    ) -> tuple[Bounds, tuple[AllocSite, ...], int]:
        no_sites: tuple[AllocSite, ...] = ()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return {}, no_sites, CONST
        if isinstance(stmt, ast.Assign):
            keyed = self._keyed_assign(stmt, state, phase)
            if keyed is not None:
                return keyed
            bounds, sites, size = self._size_of(stmt.value, state, phase)
            # A scalar whose *magnitude* is dataset-sized (``n =
            # len(source)``) must size later allocations (``zeros(n)``).
            size = max(size, self._extent_of(stmt.value, state))
            self._bind(stmt.targets, size, stmt.value, state)
            return bounds, sites, CONST
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return {}, no_sites, CONST
            bounds, sites, size = self._size_of(stmt.value, state, phase)
            size = max(size, self._extent_of(stmt.value, state))
            self._bind([stmt.target], size, stmt.value, state)
            return bounds, sites, CONST
        if isinstance(stmt, ast.AugAssign):
            bounds, sites, _size = self._size_of(stmt.value, state, phase)
            extent = self._extent_of(stmt.value, state)
            if (
                isinstance(stmt.target, ast.Name)
                and isinstance(stmt.op, ast.Add)
                and state.in_stream_loop
                and extent >= CHUNK
            ):
                # ``n += chunk.shape[0]``-style: the accumulated
                # magnitude grows to the dataset over the scan.
                state.sizes[stmt.target.id] = N
            return bounds, sites, CONST
        if isinstance(stmt, ast.If):
            bounds, sites, _ = self._size_of(stmt.test, state, phase)
            body = self._analyze_body(stmt.body, state, phase)
            orelse = self._analyze_body(stmt.orelse, state, phase)
            return (
                _join(bounds, _join(body[0], orelse[0])),
                sites + body[1] + orelse[1],
                max(body[2], orelse[2]),
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._analyze_for(stmt, state, phase)
        if isinstance(stmt, ast.While):
            bounds, sites, _ = self._size_of(stmt.test, state, phase)
            body = self._loop_body(stmt.body, stmt, state, phase, stream=False)
            return _join(bounds, body[0]), sites + body[1], body[2]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            bounds: Bounds = {}
            sites: tuple[AllocSite, ...] = ()
            inner_phase = phase
            for item in stmt.items:
                label = self._phase_label(item.context_expr)
                if label is not None:
                    inner_phase = label
                else:
                    b, s, _ = self._size_of(item.context_expr, state, phase)
                    bounds = _join(bounds, b)
                    sites = sites + s
            body = self._analyze_body(stmt.body, state, inner_phase)
            return _join(bounds, body[0]), sites + body[1], body[2]
        if isinstance(stmt, ast.Try):
            bounds, sites, ret = self._analyze_body(stmt.body, state, phase)
            for handler in stmt.handlers:
                h = self._analyze_body(handler.body, state, phase)
                bounds = _join(bounds, h[0])
                sites = sites + h[1]
                ret = max(ret, h[2])
            for extra in (stmt.orelse, stmt.finalbody):
                e = self._analyze_body(extra, state, phase)
                bounds = _join(bounds, e[0])
                sites = sites + e[1]
                ret = max(ret, e[2])
            return bounds, sites, ret
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return {}, no_sites, CONST
            bounds, sites, size = self._size_of(stmt.value, state, phase)
            return bounds, sites, size
        if isinstance(stmt, ast.Expr):
            grow = self._accumulation(stmt.value, state, phase)
            if grow is not None:
                return grow
            bounds, sites, _ = self._size_of(stmt.value, state, phase)
            return bounds, sites, CONST
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            return {}, no_sites, CONST
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.sizes.pop(target.id, None)
            return {}, no_sites, CONST
        return {}, no_sites, CONST

    def _analyze_for(
        self, stmt: ast.For, state: _State, phase: str | None
    ) -> tuple[Bounds, tuple[AllocSite, ...], int]:
        bounds, sites, _ = self._size_of(stmt.iter, state, phase)
        over_stream = self._is_stream_scan(stmt.iter, state) or (
            isinstance(stmt.iter, ast.Call)
            and bool(stmt.iter.args)
            and self._is_stream_scan(stmt.iter.args[0], state)
        )
        selection = self._is_selection_expr(stmt.iter, state)
        # The loop variable holds one stream chunk / one selected row.
        elt = CHUNK if over_stream else self._element_size(stmt.iter, state)
        for name in self._target_names(stmt.target):
            state.sizes[name] = elt
        body = self._loop_body(
            stmt.body, stmt, state, phase, stream=over_stream, selection=selection
        )
        orelse = self._analyze_body(stmt.orelse, state, phase)
        return (
            _join(_join(bounds, body[0]), orelse[0]),
            sites + body[1] + orelse[1],
            max(body[2], orelse[2]),
        )

    def _loop_body(
        self,
        body: list,
        stmt: ast.stmt,
        state: _State,
        phase: str | None,
        *,
        stream: bool,
        selection: bool = False,
    ) -> tuple[Bounds, tuple[AllocSite, ...], int]:
        outer = (
            state.in_stream_loop,
            state.in_selection_loop,
            state.windowed,
        )
        state.in_stream_loop = state.in_stream_loop or stream
        state.in_selection_loop = selection or (
            state.in_selection_loop and not stream
        )
        state.windowed = state.windowed | self._cleared_names(body)
        try:
            return self._analyze_body(body, state, phase)
        finally:
            (
                state.in_stream_loop,
                state.in_selection_loop,
                state.windowed,
            ) = outer

    def _keyed_assign(
        self, stmt: ast.Assign, state: _State, phase: str | None
    ) -> tuple[Bounds, tuple[AllocSite, ...], int] | None:
        """``d[key] = value`` accumulation into a keyed summary.

        Inside a stream loop this is charged ``O(m)`` — the grid-cell
        dictionary idiom, a parameter-bounded key space (documented
        approximation) — unless a selection loop caps it at ``O(b)``.
        """
        if len(stmt.targets) != 1:
            return None
        target = stmt.targets[0]
        if not (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
        ):
            return None
        if not (state.in_stream_loop or state.in_selection_loop):
            bounds, sites, _ = self._size_of(stmt.value, state, phase)
            return bounds, sites, CONST
        bounds, sites, pay = self._size_of(stmt.value, state, phase)
        size = B if state.in_selection_loop else M
        size = max(size, pay if pay < CHUNK else size)
        receiver = target.value.id
        state.sizes[receiver] = max(state.sizes.get(receiver, CONST), size)
        if size > CONST:
            sites = sites + (
                AllocSite(
                    path=state.func.module.display_path,
                    line=stmt.lineno,
                    size=size,
                    kind="keyed-summary accumulation (d[key] = ...)",
                    phase=phase,
                ),
            )
        return _join(bounds, {phase: size}), sites, CONST

    @staticmethod
    def _cleared_names(body: list) -> frozenset:
        """Accumulators reset within a loop body (windowed accumulation)."""
        cleared: set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "clear"
                    and isinstance(node.func.value, ast.Name)
                ):
                    cleared.add(node.func.value.id)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and isinstance(
                            node.value, (ast.List, ast.Dict, ast.Set)
                        ):
                            cleared.add(target.id)
        return frozenset(cleared)

    @staticmethod
    def _target_names(target: ast.expr) -> Iterator[str]:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from SpaceAnalyzer._target_names(elt)
        elif isinstance(target, ast.Starred):
            yield from SpaceAnalyzer._target_names(target.value)

    def _bind(
        self, targets: list, size: int, value: ast.expr, state: _State
    ) -> None:
        """Forward-propagate sizes, stream-ness and constructor types."""
        names = [
            name for target in targets for name in self._target_names(target)
        ]
        for name in names:
            state.sizes[name] = size
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            name = targets[0].id
            if isinstance(value, (ast.Compare, ast.BoolOp)):
                state.masks.add(name)
            else:
                state.masks.discard(name)
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
    # Accumulation

    def _accumulation(
        self, expr: ast.expr, state: _State, phase: str | None
    ) -> tuple[Bounds, tuple[AllocSite, ...], int] | None:
        """Handle a growth statement (``x.append(...)`` etc.), or None."""
        if not isinstance(expr, ast.Call):
            return None
        receiver: str | None = None
        payload: list[ast.expr] = []
        method: str | None = None
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _GROW_METHODS
            and isinstance(expr.func.value, ast.Name)
        ):
            receiver = expr.func.value.id
            method = expr.func.attr
            payload = list(expr.args)
        else:
            chain = attr_chain(expr.func)
            if (
                chain
                and chain[-1] in {"heappush", "heapreplace"}
                and expr.args
                and isinstance(expr.args[0], ast.Name)
            ):
                receiver = expr.args[0].id
                method = chain[-1]
                payload = list(expr.args[1:])
        if receiver is None or method is None:
            return None
        # A method on an in-project object (``sampler.extend(chunk)`` on
        # a constructor-typed ReservoirSampler) is that class's code,
        # not list growth — let call resolution analyse the real body.
        if self.graph.resolve_call(expr, state.func, state.self_cls, state.types):
            return None
        pay_bounds: Bounds = {}
        pay_sites: tuple[AllocSite, ...] = ()
        pay_size = CONST
        for arg in payload:
            b, s, size = self._size_of(arg, state, phase)
            pay_bounds = _join(pay_bounds, b)
            pay_sites = pay_sites + s
            pay_size = max(pay_size, size)
        size = self._accumulated_size(
            receiver, method, payload, pay_size, state
        )
        state.sizes[receiver] = max(state.sizes.get(receiver, CONST), size)
        sites = pay_sites
        if size > CONST:
            sites = sites + (
                AllocSite(
                    path=state.func.module.display_path,
                    line=expr.lineno,
                    size=size,
                    kind=f"accumulation via .{method}()",
                    phase=phase,
                ),
            )
        return _join(pay_bounds, {phase: size}), sites, CONST

    def _accumulated_size(
        self,
        receiver: str,
        method: str,
        payload: list[ast.expr],
        pay_size: int,
        state: _State,
    ) -> int:
        if method == "heapreplace":
            # Replacement: the heap does not grow.
            return state.sizes.get(receiver, CONST)
        if not state.in_stream_loop:
            if state.in_selection_loop:
                return max(B, pay_size)
            return max(state.sizes.get(receiver, CONST), pay_size)
        if receiver in state.windowed:
            # Windowed accumulation: cleared within the loop body.
            return max(CHUNK, pay_size)
        if state.in_selection_loop or any(
            self._is_masked_expr(arg, state) for arg in payload
        ):
            # Expected-size rule: masked selections accumulate to O(b).
            return max(B, pay_size if pay_size < CHUNK else B)
        if method in {"add", "update"}:
            # Keyed summary: parameter-bounded key space.
            return M
        return N

    @staticmethod
    def _is_mask_index(index: ast.expr, state: _State) -> bool:
        if isinstance(index, (ast.Compare, ast.BoolOp)):
            return True
        return isinstance(index, ast.Name) and index.id in state.masks

    def _is_masked_expr(self, expr: ast.expr, state: _State) -> bool:
        """Whether an expression is a masked/index-selected slice of a
        chunk (the expected-size rule's trigger)."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain and chain[-1] == "nonzero":
                    return True
            if isinstance(node, ast.Subscript) and not isinstance(
                node.slice, ast.Slice
            ):
                if self._is_mask_index(node.slice, state):
                    return True
                base_size = self._name_size(node.value, state)
                if base_size >= CHUNK and not isinstance(
                    node.slice, ast.Constant
                ):
                    return True
        return False

    def _is_selection_expr(self, expr: ast.expr, state: _State) -> bool:
        """``for i in np.nonzero(...)[0]``-style selection iteration."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain and chain[-1] == "nonzero":
                    return True
        return False

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
            if chain and chain[-1] in _STREAM_FACTORY_NAMES:
                return True
            constructed = self.graph._constructed_class(
                expr, self.graph.scope(state.func.module)
            )
            if constructed is not None and (
                constructed.name == _STREAM_BASE
                or self.graph.inherits_from(constructed, _STREAM_BASE)
            ):
                return True
        return False

    def _is_stream_scan(self, expr: ast.expr, state: _State) -> bool:
        """A stream, or ``<stream>.iter_with_offsets()``: one pass's chunks."""
        return self._is_stream_expr(expr, state) or (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "iter_with_offsets"
            and self._is_stream_expr(expr.func.value, state)
        )

    def _name_size(self, expr: ast.expr, state: _State) -> int:
        if isinstance(expr, ast.Name):
            if expr.id in state.streams:
                return N
            return state.sizes.get(expr.id, CONST)
        if isinstance(expr, ast.Attribute):
            if expr.attr in M_SIZED_ATTRS:
                return M
        return CONST

    def _element_size(self, iter_expr: ast.expr, state: _State) -> int:
        """Size of one element when looping over a non-stream iterable."""
        size = self._name_size(iter_expr, state)
        if isinstance(iter_expr, ast.Call):
            chain = attr_chain(iter_expr.func)
            if chain and chain[-1] in {"zip", "enumerate"}:
                return max(
                    (
                        self._element_size(arg, state)
                        for arg in iter_expr.args
                    ),
                    default=CONST,
                )
        if size >= CHUNK:
            # Iterating a chunk-window list yields chunks.
            return CHUNK
        return CONST

    def _extent_of(self, expr: ast.expr | None, state: _State) -> int:
        """Magnitude class of a *length-like* scalar expression."""
        if expr is None:
            return CONST
        if isinstance(expr, ast.Constant):
            return CONST
        if isinstance(expr, ast.Name):
            if expr.id in B_EXTENT_NAMES:
                return B
            if expr.id in M_EXTENT_NAMES:
                return M
            return state.sizes.get(expr.id, CONST)
        if isinstance(expr, ast.Attribute):
            if expr.attr in B_EXTENT_NAMES:
                return B
            if expr.attr in M_EXTENT_NAMES:
                return M
            return CONST
        if isinstance(expr, ast.Subscript):
            # ``x.shape[0]`` — the extent of an array's leading axis is
            # that array's own size class.
            if (
                isinstance(expr.value, ast.Attribute)
                and expr.value.attr == "shape"
            ):
                return self._name_size(expr.value.value, state)
            return self._extent_of(expr.value, state)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return max(
                (self._extent_of(elt, state) for elt in expr.elts),
                default=CONST,
            )
        if isinstance(expr, ast.BinOp):
            return max(
                self._extent_of(expr.left, state),
                self._extent_of(expr.right, state),
            )
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain and chain[-1] == "len":
                return self._name_size(expr.args[0], state) if expr.args else CONST
            if chain and chain[-1] in {"min", "max", "int", "ceil", "floor", "round"}:
                return max(
                    (self._extent_of(arg, state) for arg in expr.args),
                    default=CONST,
                )
        return CONST

    def _size_of(
        self, expr: ast.expr | None, state: _State, phase: str | None
    ) -> tuple[Bounds, tuple[AllocSite, ...], int]:
        """(allocation bounds, sites, abstract size of the value)."""
        no_sites: tuple[AllocSite, ...] = ()
        if expr is None:
            return {}, no_sites, CONST
        if isinstance(expr, ast.Constant):
            return {}, no_sites, CONST
        if isinstance(expr, ast.Name):
            return {}, no_sites, self._name_size(expr, state)
        if isinstance(expr, ast.Attribute):
            bounds, sites, _ = self._size_of(expr.value, state, phase)
            return bounds, sites, self._name_size(expr, state)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            bounds: Bounds = {}
            sites = no_sites
            size = CONST
            for elt in expr.elts:
                b, s, es = self._size_of(elt, state, phase)
                bounds = _join(bounds, b)
                sites = sites + s
                size = max(size, es)
            return bounds, sites, size
        if isinstance(expr, ast.Dict):
            bounds = {}
            sites = no_sites
            size = CONST
            for value in expr.values:
                b, s, es = self._size_of(value, state, phase)
                bounds = _join(bounds, b)
                sites = sites + s
                size = max(size, es)
            return bounds, sites, size
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return self._comprehension(expr, state, phase)
        if isinstance(expr, ast.Call):
            return self._size_of_call(expr, state, phase)
        if isinstance(expr, ast.Subscript):
            return self._size_of_subscript(expr, state, phase)
        if isinstance(expr, ast.BinOp):
            lb, ls, lsize = self._size_of(expr.left, state, phase)
            rb, rs, rsize = self._size_of(expr.right, state, phase)
            return _join(lb, rb), ls + rs, max(lsize, rsize)
        if isinstance(expr, (ast.UnaryOp,)):
            return self._size_of(expr.operand, state, phase)
        if isinstance(expr, ast.Compare):
            bounds, sites, size = self._size_of(expr.left, state, phase)
            for comp in expr.comparators:
                b, s, cs = self._size_of(comp, state, phase)
                bounds = _join(bounds, b)
                sites = sites + s
                size = max(size, cs)
            return bounds, sites, size
        if isinstance(expr, ast.BoolOp):
            bounds = {}
            sites = no_sites
            size = CONST
            for value in expr.values:
                b, s, vs = self._size_of(value, state, phase)
                bounds = _join(bounds, b)
                sites = sites + s
                size = max(size, vs)
            return bounds, sites, size
        if isinstance(expr, ast.IfExp):
            tb, ts, _ = self._size_of(expr.test, state, phase)
            bb, bs, bsize = self._size_of(expr.body, state, phase)
            ob, os_, osize = self._size_of(expr.orelse, state, phase)
            return (
                _join(tb, _join(bb, ob)),
                ts + bs + os_,
                max(bsize, osize),
            )
        if isinstance(expr, ast.Starred):
            return self._size_of(expr.value, state, phase)
        if isinstance(expr, ast.NamedExpr):
            bounds, sites, size = self._size_of(expr.value, state, phase)
            if isinstance(expr.target, ast.Name):
                state.sizes[expr.target.id] = size
            return bounds, sites, size
        # Lambdas, f-strings, slices, ...: nothing sized.
        return {}, no_sites, CONST

    def _comprehension(
        self, expr: ast.expr, state: _State, phase: str | None
    ) -> tuple[Bounds, tuple[AllocSite, ...], int]:
        bounds: Bounds = {}
        sites: tuple[AllocSite, ...] = ()
        size = CONST
        selection = False
        for gen in expr.generators:
            if self._is_stream_scan(gen.iter, state):
                size = max(size, N)
                sites = sites + (
                    AllocSite(
                        path=state.func.module.display_path,
                        line=gen.iter.lineno,
                        size=N,
                        kind="comprehension materialises a stream",
                        phase=phase,
                    ),
                )
                for name in self._target_names(gen.target):
                    state.sizes[name] = CHUNK
                continue
            b, s, gsize = self._size_of(gen.iter, state, phase)
            bounds = _join(bounds, b)
            sites = sites + s
            selection = selection or self._is_selection_expr(gen.iter, state)
            size = max(size, gsize)
            elt = CHUNK if gsize >= CHUNK else CONST
            for name in self._target_names(gen.target):
                state.sizes[name] = elt
        if selection:
            size = max(size, B) if size < CHUNK else B
        if size > CONST:
            bounds = _join(bounds, {phase: size})
        return bounds, sites, size

    def _size_of_subscript(
        self, expr: ast.Subscript, state: _State, phase: str | None
    ) -> tuple[Bounds, tuple[AllocSite, ...], int]:
        bounds, sites, base = self._size_of(expr.value, state, phase)
        ib, is_, idx = self._size_of(expr.slice, state, phase)
        bounds = _join(bounds, ib)
        sites = sites + is_
        if isinstance(expr.slice, ast.Slice):
            # A slice view of a large array is (at most) chunk-sized in
            # the idioms this codebase uses (windowed block slicing).
            return bounds, sites, min(base, CHUNK)
        if isinstance(expr.slice, ast.Constant):
            return bounds, sites, CONST if base <= CHUNK else base
        if self._is_mask_index(expr.slice, state):
            # Boolean-mask selection: expected-size rule (a
            # Bernoulli-mask keep set is budget-sized).
            return bounds, sites, B if base > CONST or idx > CONST else CONST
        if base >= CHUNK:
            # Masked / fancy selection of a large array: expected-size
            # rule applies even without a tracked mask binding.
            return bounds, sites, B
        if idx >= CHUNK:
            # Fancy-indexing a small table with a chunk-sized indexer
            # (``counts[buckets]``) yields the indexer's shape.
            return bounds, sites, idx
        return bounds, sites, base

    def _size_of_call(
        self, call: ast.Call, state: _State, phase: str | None
    ) -> tuple[Bounds, tuple[AllocSite, ...], int]:
        bounds: Bounds = {}
        sites: tuple[AllocSite, ...] = ()
        arg_sizes: list[int] = []
        for arg in [*call.args, *[kw.value for kw in call.keywords]]:
            b, s, size = self._size_of(arg, state, phase)
            bounds = _join(bounds, b)
            sites = sites + s
            arg_sizes.append(size)
        arg_join = max(arg_sizes, default=CONST)
        chain = attr_chain(call.func)
        tail = chain[-1] if chain else None

        def alloc(size: int, kind: str):
            nonlocal bounds, sites
            if size > CONST:
                bounds = _join(bounds, {phase: size})
                sites = sites + (
                    AllocSite(
                        path=state.func.module.display_path,
                        line=call.lineno,
                        size=size,
                        kind=kind,
                        phase=phase,
                    ),
                )

        # Stream materialisation.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "materialize"
            and self._is_stream_expr(call.func.value, state)
        ):
            alloc(N, ".materialize()")
            return bounds, sites, N
        if tail == "list" and call.args and self._is_stream_scan(
            call.args[0], state
        ):
            alloc(N, "list(<stream>) materialisation")
            return bounds, sites, N

        # Parallel dispatch: result list is sized like the chunk list;
        # unresolvable workers are charged the estimator contract.
        if is_dispatch_call(call):
            worker_size = self._worker_footprint(call, state, phase)
            if worker_size > CONST:
                alloc(worker_size, "parallel worker footprint")
            ret = arg_sizes[1] if len(arg_sizes) > 1 else CONST
            return bounds, sites, ret

        # Sized numpy constructors and RNG draws.
        if tail in _SIZED_CONSTRUCTORS:
            extent = self._extent_of(call.args[0], state) if call.args else CONST
            alloc(extent, f"{tail}() allocation")
            return bounds, sites, extent
        if tail in _RNG_DRAWS and chain is not None and len(chain) >= 2:
            size_arg = call.args[0] if call.args else None
            for kw in call.keywords:
                if kw.arg == "size":
                    size_arg = kw.value
            extent = self._extent_of(size_arg, state)
            alloc(extent, f"{tail}() draw")
            return bounds, sites, extent
        if tail == "nonzero":
            # Index set of a selection: expected-size rule.
            return bounds, sites, B if arg_join >= CHUNK else arg_join
        if tail in _REDUCTIONS:
            return bounds, sites, CONST
        if tail in _SIZE_PRESERVING or tail in {
            "list",
            "tuple",
            "set",
            "dict",
            "frozenset",
            "zip",
            "enumerate",
            "reversed",
        }:
            return bounds, sites, arg_join

        # In-project resolution.
        targets = self.graph.resolve_call(
            call, state.func, state.self_cls, state.types
        )
        if targets:
            target = targets[0]
            callee_bounds, callee_sites, ret = self.analyze_target(target)
            callee_bounds = _rephase(callee_bounds, phase)
            hop = state.func.frame(call.lineno)
            for site in callee_sites:
                sites = sites + (
                    replace(
                        site,
                        phase=site.phase if site.phase is not None else phase,
                        trace=(hop,) + site.trace,
                    ),
                )
            return _join(bounds, callee_bounds), sites, ret

        # Unresolved estimator-contract call sites.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _CONTRACT_ATTRS
        ):
            alloc(
                self._contract,
                f"estimator .{call.func.attr}() contract "
                f"({ESTIMATOR_BASE}.__space__ = "
                f"{SIZE_NAMES[self._contract]})",
            )
            if call.func.attr == "evaluate":
                return bounds, sites, arg_join
            return bounds, sites, CONST

        # Unresolved call: conservatively size nothing (documented
        # under-approximation; the declared contract covers callees).
        return bounds, sites, CONST

    def _worker_footprint(
        self, call: ast.Call, state: _State, phase: str | None
    ) -> int:
        if not call.args:
            return CONST
        workers = self.graph.unwrap_callable(
            call.args[0], state.func, state.self_cls, state.types
        )
        if not workers:
            # Dynamic worker (``estimator.evaluate``): contract bound.
            return self._contract
        size = CONST
        for worker in workers:
            wb, _ws, _ret = self.analyze_target(worker)
            size = max(size, _peak(wb))
        return size


# ----------------------------------------------------------------------
# RA005

def entry_space_bounds(graph: CallGraph, class_name: str) -> Bounds:
    """Per-phase abstract memory bounds for one audited class (test
    hook, mirroring :func:`entry_pass_counts`). Values are lattice
    levels; render with ``SIZE_NAMES``."""
    analyzer = SpaceAnalyzer(graph)
    for cls, entry, _ in audited_entries(graph):
        if cls.name == class_name:
            bounds, _sites, _ret = analyzer.analyze_target(
                CallTarget(entry, cls)
            )
            return bounds
    raise KeyError(f"no audited entry point found for class {class_name!r}")


def _parse_declared(expr: ast.expr) -> int | dict | None:
    """``__space__`` value: joined size, or {phase: joined size}."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return parse_bound(expr.value)
    if isinstance(expr, ast.Dict):
        out: dict = {}
        for key, value in zip(expr.keys, expr.values):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                return None
            parsed = parse_bound(value.value)
            if parsed is None:
                return None
            out[key.value] = parsed
        return out
    return None


def _normalise(bounds: Bounds) -> dict:
    """Drop O(1) phases and map the None phase to "unphased"."""
    return {
        (k if k is not None else "unphased"): v
        for k, v in bounds.items()
        if v > CONST
    }


def _fmt_bounds(bounds: Bounds) -> str:
    shown = _normalise(bounds)
    if not shown:
        return SIZE_NAMES[CONST]
    parts = [
        f"{phase}={SIZE_NAMES[size]}" for phase, size in sorted(shown.items())
    ]
    return f"{SIZE_NAMES[max(shown.values())]} ({', '.join(parts)})"


def _site_trace(
    sites: tuple[AllocSite, ...], *, floor: int = B, limit: int = 8
) -> tuple[str, ...]:
    picked = [s for s in sites if s.size >= floor][:limit]
    trace: list[str] = []
    for site in picked:
        trace.extend(site.trace)
        label = site.phase if site.phase is not None else "unphased"
        trace.append(
            f"{SIZE_NAMES[site.size]} {site.kind} [{label}] "
            f"at {site.path}:{site.line}"
        )
    return tuple(trace)


@register
class SpaceBoundAudit(AuditRule):
    code = "RA005"
    summary = (
        "samplers/estimators/detectors declare __space__ matching the "
        "statically propagated memory bound (and the docstring states it)"
    )

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        analyzer = SpaceAnalyzer(graph)
        for cls, entry, kind in audited_entries(graph):
            bounds, sites, _ret = analyzer.analyze_target(
                CallTarget(entry, cls)
            )
            anchor = cls.qualname
            symbol = f"{cls.name}.{entry.name}"
            computed = _normalise(bounds)
            peak = max(computed.values(), default=CONST)

            if peak >= UNBOUNDED:
                yield self.finding(
                    cls.module,
                    cls.node,
                    f"{symbol} reaches an unbounded cross-chunk "
                    f"accumulation ({_fmt_bounds(bounds)})",
                    anchor=anchor,
                    trace=_site_trace(sites, floor=UNBOUNDED),
                )
                continue

            declared_expr = graph.declared_attr(cls, "__space__")
            declared = (
                _parse_declared(declared_expr)
                if declared_expr is not None
                else None
            )
            if declared_expr is None:
                yield self.finding(
                    cls.module,
                    cls.node,
                    f"{kind} {cls.name} has no __space__ declaration "
                    f"(statically propagated bound: {_fmt_bounds(bounds)} "
                    f"from {symbol})",
                    anchor=anchor,
                    trace=_site_trace(sites),
                )
                continue
            if declared is None:
                owner = graph.own_or_inherited_attr_owner(cls, "__space__")
                yield self.finding(
                    (owner or cls).module,
                    (owner or cls).node,
                    f'{cls.name}.__space__ must be an "O(...)" bound '
                    "string or a {phase: bound} dict literal "
                    "(components: 1, b, m, chunk, n)",
                    anchor=anchor,
                )
                continue

            if isinstance(declared, int):
                declared_peak = declared
                if declared != peak:
                    yield self.finding(
                        cls.module,
                        cls.node,
                        f"{symbol} statically allocates "
                        f"{_fmt_bounds(bounds)} but __space__ declares "
                        f"{SIZE_NAMES[declared]}",
                        anchor=anchor,
                        trace=_site_trace(sites),
                    )
            else:
                declared_peak = max(declared.values(), default=CONST)
                normal_decl = {k: v for k, v in declared.items() if v > CONST}
                if normal_decl != computed:
                    yield self.finding(
                        cls.module,
                        cls.node,
                        f"{symbol} statically allocates "
                        f"{_fmt_bounds(bounds)} but __space__ declares "
                        + ", ".join(
                            f"{k}={SIZE_NAMES[v]}"
                            for k, v in sorted(declared.items())
                        ),
                        anchor=anchor,
                        trace=_site_trace(sites),
                    )

            yield from self._check_docstring(cls, declared_peak, anchor)

    def _check_docstring(
        self, cls: ClassNode, declared_peak: int, anchor: str
    ) -> Iterator[Finding]:
        doc = ast.get_docstring(cls.node)
        match = _DOC_MEMORY_RE.search(doc) if doc else None
        if match is None:
            yield self.finding(
                cls.module,
                cls.node,
                f"{cls.name} docstring must state its memory bound with "
                f'a "Memory: {SIZE_NAMES[declared_peak]}" line',
                anchor=f"{anchor}.__doc__",
            )
            return
        stated = parse_bound(match.group(1))
        if stated != declared_peak:
            yield self.finding(
                cls.module,
                cls.node,
                f'{cls.name} docstring says "Memory: {match.group(1)}" '
                f"but __space__ joins to {SIZE_NAMES[declared_peak]}",
                anchor=f"{anchor}.__doc__",
            )


# ----------------------------------------------------------------------
# RA006


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
            if a.arg in STREAM_PARAM_NAMES
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
        # the list method (one argument) handled by RA005, not a copy.
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
