"""Project call graph for repro-audit.

Builds a whole-program model on top of :class:`tools.astkit.ProjectModel`:
classes with MRO-based method lookup, module scopes with import
resolution (including relative imports and ``__init__`` re-exports),
call-target resolution inside function bodies, and a BFS reachability
engine that records a per-edge "why" trace for diagnostics.

Everything here is a *static under/over-approximation* of runtime
behaviour — the trade-offs are documented in DESIGN.md §6. The model
never imports the analysed code.

Resolution handles the idioms the repro codebase actually uses:

* ``self.method(...)`` / ``cls.method(...)`` through the receiver's MRO,
  so audits of a subclass entry point see overridden helpers;
* ``super().method(...)``;
* module-level functions and classes, directly or via ``from x import y``
  (chased through package ``__init__`` re-exports);
* ``mod.func(...)`` where ``mod`` is a scanned module;
* constructor-typed locals: after ``est = KernelDensityEstimator(...)``,
  ``est.fit(...)`` resolves through that class's MRO;
* ``functools.partial(f, ...)`` unwrapping at dispatch sites.

Dynamically-typed attribute calls that none of the above resolve (for
example ``estimator.fit(...)`` where ``estimator`` is a parameter) are
returned unresolved; rules decide whether a declared contract applies.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from tools.astkit import ControlFlowGraph, ModuleInfo, ProjectModel, build_cfg

__all__ = [
    "CallGraph",
    "CallTarget",
    "ClassNode",
    "FuncNode",
    "attr_chain",
    "decorator_names",
    "is_dispatch_call",
]

#: Import-chasing depth limit (re-export chains through ``__init__``).
_MAX_IMPORT_HOPS = 6


@dataclass
class ClassNode:
    """A class definition plus the lookup tables rules need."""

    module: ModuleInfo
    node: ast.ClassDef
    #: Direct methods defined in the class body, name -> def node.
    own_methods: dict[str, ast.FunctionDef] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def qualname(self) -> str:
        return f"{self.module.module}.{self.name}"


@dataclass(frozen=True)
class FuncNode:
    """A function or method definition in the project."""

    module: ModuleInfo
    node: ast.FunctionDef
    cls: "ClassNode | None" = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def qualname(self) -> str:
        if self.cls is not None:
            return f"{self.cls.qualname}.{self.name}"
        return f"{self.module.module}.{self.name}"

    def frame(self, line: int | None = None) -> str:
        """A "why"-trace frame string, optionally at a specific line."""
        where = self.module.display_path
        at = line if line is not None else self.node.lineno
        return f"{self.qualname} ({where}:{at})"


@dataclass(frozen=True)
class CallTarget:
    """A resolved call edge: the callee plus the receiver class, if any.

    ``self_cls`` is the *dynamic* receiver class used for further
    ``self.x`` lookups inside the callee — for an audit of
    ``OnePassBiasedSampler.sample`` it stays ``OnePassBiasedSampler``
    even while executing a method inherited from the base class.
    """

    func: FuncNode
    self_cls: ClassNode | None = None

    @property
    def key(self) -> tuple[int, int]:
        return (id(self.func.node), id(self.self_cls) if self.self_cls else 0)


def attr_chain(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return list(reversed(parts))
    return None


def decorator_names(node: ast.FunctionDef) -> set[str]:
    """Trailing identifiers of a def's decorators (``abstractmethod`` …)."""
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        chain = attr_chain(target)
        if chain:
            names.add(chain[-1])
    return names


def is_dispatch_call(call: ast.Call) -> bool:
    """Whether a call fans work out through ``repro.parallel``.

    Recognises ``parallel_map_chunks(...)`` (bare or attribute-qualified)
    and ``get_backend(...).map(...)``. Shared by every rule family that
    reasons about parallel workers (RA002/RA006/RA009/RA010).
    """
    chain = attr_chain(call.func)
    if chain and chain[-1] == "parallel_map_chunks":
        return True
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "map"
        and isinstance(call.func.value, ast.Call)
    ):
        inner = attr_chain(call.func.value.func)
        return bool(inner) and inner[-1] == "get_backend"
    return False


class CallGraph:
    """Whole-program model: classes, scopes, call resolution, reachability."""

    def __init__(self, project: ProjectModel):
        self.project = project
        self.classes: list[ClassNode] = []
        self.classes_by_name: dict[str, list[ClassNode]] = {}
        #: Module-level functions, (module name, func name) -> node.
        self._module_funcs: dict[tuple[str, str], FuncNode] = {}
        self._scopes: dict[str, dict[str, object]] = {}
        self._mro_cache: dict[int, list[ClassNode]] = {}
        # Shared per-run caches: one CallGraph serves every rule family
        # (RA002-RA011), so sub-computations that used to be re-derived
        # per rule are memoized here.
        self._local_types_cache: dict[tuple[int, int], dict[str, ClassNode]] = {}
        self._calls_cache: dict[int, tuple[ast.Call, ...]] = {}
        self._cfg_cache: dict[int, ControlFlowGraph] = {}
        self._dispatch_sites: list[tuple[FuncNode, ast.Call]] | None = None
        self._index()

    # ------------------------------------------------------------------
    # Indexing

    def _index(self) -> None:
        for info in self.project.modules:
            for stmt in info.tree.body:
                self._index_stmt(info, stmt)

    def _index_stmt(self, info: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.ClassDef):
            cls = ClassNode(module=info, node=stmt)
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    cls.own_methods[item.name] = item
            self.classes.append(cls)
            self.classes_by_name.setdefault(cls.name, []).append(cls)
        elif isinstance(stmt, ast.FunctionDef):
            self._module_funcs[(info.module, stmt.name)] = FuncNode(
                module=info, node=stmt
            )
        elif isinstance(stmt, (ast.If, ast.Try)):
            bodies = [stmt.body, list(getattr(stmt, "orelse", []))]
            for handler in getattr(stmt, "handlers", []):
                bodies.append(handler.body)
            for body in bodies:
                for sub in body:
                    self._index_stmt(info, sub)

    # ------------------------------------------------------------------
    # Scopes and import resolution

    def scope(self, info: ModuleInfo) -> dict[str, object]:
        """Top-level name -> entity for one module.

        Entities are :class:`ClassNode`, :class:`FuncNode`,
        :class:`~tools.astkit.ModuleInfo` (for imported scanned modules)
        or ``ast.expr`` (module-level assigned value, e.g. a ContextVar
        constructor call).
        """
        cached = self._scopes.get(info.module)
        if cached is not None:
            return cached
        scope: dict[str, object] = {}
        self._scopes[info.module] = scope  # placed first: cycle-safe
        for stmt in info.tree.body:
            self._scope_stmt(info, stmt, scope)
        return scope

    def _scope_stmt(
        self, info: ModuleInfo, stmt: ast.stmt, scope: dict[str, object]
    ) -> None:
        if isinstance(stmt, ast.ClassDef):
            scope[stmt.name] = self._class_node(info, stmt)
        elif isinstance(stmt, ast.FunctionDef):
            scope[stmt.name] = self._module_funcs[(info.module, stmt.name)]
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                mod = self.project.resolve_module(alias.name)
                if mod is not None:
                    scope[alias.asname or alias.name.split(".")[0]] = mod
        elif isinstance(stmt, ast.ImportFrom):
            source = self._import_source(info, stmt)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                entity = self._resolve_in(source, alias.name) if source else None
                if entity is None and source is not None:
                    # ``from pkg import submodule``
                    sub = self.project.resolve_module(
                        f"{source}.{alias.name}"
                    )
                    entity = sub
                if entity is not None:
                    scope[bound] = entity
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    scope.setdefault(target.id, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                scope.setdefault(stmt.target.id, stmt.value)
        elif isinstance(stmt, (ast.If, ast.Try)):
            bodies = [stmt.body, list(getattr(stmt, "orelse", []))]
            for handler in getattr(stmt, "handlers", []):
                bodies.append(handler.body)
            for body in bodies:
                for sub in body:
                    self._scope_stmt(info, sub, scope)

    def _class_node(self, info: ModuleInfo, node: ast.ClassDef) -> ClassNode:
        for cls in self.classes_by_name.get(node.name, []):
            if cls.node is node:
                return cls
        # Conditionally-defined class not caught by indexing; register it.
        cls = ClassNode(module=info, node=node)
        self.classes.append(cls)
        self.classes_by_name.setdefault(node.name, []).append(cls)
        return cls

    def _import_source(self, info: ModuleInfo, stmt: ast.ImportFrom) -> str | None:
        """Absolute dotted module a ``from ... import`` pulls from."""
        if not stmt.level:
            return stmt.module
        parts = info.module.split(".")
        # ``from . import x`` in a package __init__ refers to the package
        # itself; in a plain module it refers to the containing package.
        drop = stmt.level if not info.is_init else stmt.level - 1
        if drop:
            parts = parts[:-drop]
        if stmt.module:
            parts.append(stmt.module)
        return ".".join(parts) if parts else None

    def _resolve_in(
        self, module: str, name: str, hops: int = _MAX_IMPORT_HOPS
    ) -> object | None:
        """Resolve ``module.name`` to an entity, chasing re-exports."""
        if hops <= 0:
            return None
        info = self.project.resolve_module(module)
        if info is None:
            return None
        for stmt in info.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == name:
                return self._class_node(info, stmt)
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                return self._module_funcs[(info.module, stmt.name)]
        for stmt in info.tree.body:
            if isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if (alias.asname or alias.name) == name:
                        source = self._import_source(info, stmt)
                        if source is None:
                            return None
                        found = self._resolve_in(source, alias.name, hops - 1)
                        if found is not None:
                            return found
                        return self.project.resolve_module(
                            f"{source}.{alias.name}"
                        )
        return None

    # ------------------------------------------------------------------
    # Class hierarchy

    def mro(self, cls: ClassNode) -> list[ClassNode]:
        """Approximate linearisation: depth-first over resolvable bases."""
        cached = self._mro_cache.get(id(cls))
        if cached is not None:
            return cached
        order: list[ClassNode] = []
        seen: set[int] = set()
        self._mro_cache[id(cls)] = order  # cycle-safe
        stack: list[ClassNode] = [cls]
        while stack:
            current = stack.pop(0)
            if id(current) in seen:
                continue
            seen.add(id(current))
            order.append(current)
            bases = [
                b
                for b in (self._resolve_base(current, e) for e in current.node.bases)
                if b is not None
            ]
            stack = bases + stack
        return order

    def _resolve_base(self, cls: ClassNode, expr: ast.expr) -> ClassNode | None:
        scope = self.scope(cls.module)
        if isinstance(expr, ast.Name):
            entity = scope.get(expr.id)
            return entity if isinstance(entity, ClassNode) else None
        chain = attr_chain(expr)
        if chain and len(chain) >= 2:
            entity = scope.get(chain[0])
            if isinstance(entity, ModuleInfo):
                found = self._resolve_in(entity.module, chain[-1])
                if isinstance(found, ClassNode):
                    return found
        return None

    def lookup_method(self, cls: ClassNode, name: str) -> FuncNode | None:
        """First definition of method ``name`` along the MRO."""
        for node in self.mro(cls):
            fn = node.own_methods.get(name)
            if fn is not None:
                return FuncNode(module=node.module, node=fn, cls=node)
        return None

    def is_abstract(self, cls: ClassNode) -> bool:
        """Whether any abstract method is left unimplemented."""
        first_def: dict[str, ast.FunctionDef] = {}
        for node in self.mro(cls):
            for name, fn in node.own_methods.items():
                first_def.setdefault(name, fn)
        return any(
            "abstractmethod" in decorator_names(fn) for fn in first_def.values()
        )

    # ------------------------------------------------------------------
    # Per-function type environment and call resolution

    def local_types(
        self, func: FuncNode, self_cls: ClassNode | None = None
    ) -> dict[str, ClassNode]:
        """Constructor-typed locals: ``est = KernelDensityEstimator(...)``.

        Single forward scan; only direct ``Name = ClassName(...)`` and
        ``Name = mod.ClassName(...)`` shapes are tracked, plus
        conditional expressions whose branches construct the same class.
        Results are memoized per (function, receiver class) — every rule
        family queries the same environments.
        """
        key = (id(func.node), id(self_cls) if self_cls is not None else 0)
        cached = self._local_types_cache.get(key)
        if cached is not None:
            return cached
        env: dict[str, ClassNode] = {}
        scope = self.scope(func.module)
        for stmt in ast.walk(func.node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            typed = self._constructed_class(stmt.value, scope)
            if typed is not None:
                env[target.id] = typed
            elif target.id in env:
                del env[target.id]
        self._local_types_cache[key] = env
        return env

    def calls_of(self, func: FuncNode) -> tuple[ast.Call, ...]:
        """Every ``ast.Call`` in a function body, cached per def node."""
        cached = self._calls_cache.get(id(func.node))
        if cached is not None:
            return cached
        calls = tuple(
            node
            for node in ast.walk(func.node)
            if isinstance(node, ast.Call)
        )
        self._calls_cache[id(func.node)] = calls
        return calls

    def cfg_of(self, func: FuncNode) -> ControlFlowGraph:
        """The per-function control-flow graph, memoized per def node.

        Flow-sensitive rules (RA011 must-release, future ordering
        proofs) share one CFG per function across the whole run.
        """
        cached = self._cfg_cache.get(id(func.node))
        if cached is None:
            cached = build_cfg(func.node)
            self._cfg_cache[id(func.node)] = cached
        return cached

    def dispatch_sites(self) -> list[tuple[FuncNode, ast.Call]]:
        """Every ``repro.parallel`` fan-out call site in the project.

        Built once per run and shared by the rule families that audit
        parallel workers (RA002 determinism, RA009 races, RA010 RNG
        ordering) and allocation patterns around dispatch (RA006).
        """
        if self._dispatch_sites is None:
            sites: list[tuple[FuncNode, ast.Call]] = []
            for func in self.iter_functions():
                for call in self.calls_of(func):
                    if is_dispatch_call(call):
                        sites.append((func, call))
            self._dispatch_sites = sites
        return self._dispatch_sites

    def _constructed_class(
        self, expr: ast.expr, scope: dict[str, object]
    ) -> ClassNode | None:
        if isinstance(expr, ast.IfExp):
            body = self._constructed_class(expr.body, scope)
            orelse = self._constructed_class(expr.orelse, scope)
            return body if body is not None else orelse
        if not isinstance(expr, ast.Call):
            return None
        callee = expr.func
        if isinstance(callee, ast.Name):
            entity = scope.get(callee.id)
            return entity if isinstance(entity, ClassNode) else None
        chain = attr_chain(callee)
        if chain and len(chain) == 2:
            entity = scope.get(chain[0])
            if isinstance(entity, ModuleInfo):
                found = self._resolve_in(entity.module, chain[1])
                if isinstance(found, ClassNode):
                    return found
        return None

    def resolve_call(
        self,
        call: ast.Call,
        func: FuncNode,
        self_cls: ClassNode | None,
        env: dict[str, ClassNode] | None = None,
    ) -> list[CallTarget]:
        """Resolve one call site to zero or more in-project callees."""
        env = env or {}
        scope = self.scope(func.module)
        callee = call.func
        if isinstance(callee, ast.Name):
            entity = scope.get(callee.id)
            if isinstance(entity, FuncNode):
                return [CallTarget(entity)]
            if isinstance(entity, ClassNode):
                init = self.lookup_method(entity, "__init__")
                return [CallTarget(init, entity)] if init else []
            return []
        if not isinstance(callee, ast.Attribute):
            return []
        attr = callee.attr
        value = callee.value
        receiver_cls: ClassNode | None = None
        if isinstance(value, ast.Name):
            if value.id in ("self", "cls") and self_cls is not None:
                receiver_cls = self_cls
            elif value.id in env:
                receiver_cls = env[value.id]
            else:
                entity = scope.get(value.id)
                if isinstance(entity, ModuleInfo):
                    found = self._resolve_in(entity.module, attr)
                    if isinstance(found, FuncNode):
                        return [CallTarget(found)]
                    if isinstance(found, ClassNode):
                        init = self.lookup_method(found, "__init__")
                        return [CallTarget(init, found)] if init else []
                    return []
                if isinstance(entity, ClassNode):
                    method = self.lookup_method(entity, attr)
                    return [CallTarget(method, entity)] if method else []
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "super"
            and self_cls is not None
        ):
            for node in self.mro(self_cls)[1:]:
                fn = node.own_methods.get(attr)
                if fn is not None:
                    return [
                        CallTarget(
                            FuncNode(module=node.module, node=fn, cls=node),
                            self_cls,
                        )
                    ]
            return []
        if receiver_cls is not None:
            method = self.lookup_method(receiver_cls, attr)
            return [CallTarget(method, receiver_cls)] if method else []
        return []

    def unwrap_callable(
        self,
        expr: ast.expr,
        func: FuncNode,
        self_cls: ClassNode | None,
        env: dict[str, ClassNode] | None = None,
    ) -> list[CallTarget]:
        """Resolve a *callable-valued expression* (worker reference).

        Handles bare names, ``self.method``, ``obj.method`` on typed
        locals, and ``partial(f, ...)`` wrapping any of those.
        """
        env = env or {}
        scope = self.scope(func.module)
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain and chain[-1] == "partial" and expr.args:
                return self.unwrap_callable(expr.args[0], func, self_cls, env)
            return []
        if isinstance(expr, ast.Name):
            entity = scope.get(expr.id)
            if isinstance(entity, FuncNode):
                return [CallTarget(entity)]
            return []
        if isinstance(expr, ast.Attribute):
            value = expr.value
            if isinstance(value, ast.Name):
                if value.id in ("self", "cls") and self_cls is not None:
                    method = self.lookup_method(self_cls, expr.attr)
                    return [CallTarget(method, self_cls)] if method else []
                if value.id in env:
                    method = self.lookup_method(env[value.id], expr.attr)
                    return (
                        [CallTarget(method, env[value.id])] if method else []
                    )
                entity = scope.get(value.id)
                if isinstance(entity, ModuleInfo):
                    found = self._resolve_in(entity.module, expr.attr)
                    if isinstance(found, FuncNode):
                        return [CallTarget(found)]
        return []

    # ------------------------------------------------------------------
    # Reachability

    def iter_functions(self) -> Iterator[FuncNode]:
        """Every function and method in the project."""
        yield from self._module_funcs.values()
        for cls in self.classes:
            for fn in cls.own_methods.values():
                yield FuncNode(module=cls.module, node=fn, cls=cls)

    def reachable(
        self,
        roots: list[tuple[CallTarget, tuple[str, ...]]],
        prune=None,
    ) -> dict[tuple[int, int], tuple[CallTarget, tuple[str, ...]]]:
        """BFS over the call graph from ``roots``.

        Each root is a (target, initial trace) pair; the returned map
        holds, per visited (function, receiver-class) node, the target
        and the "why" trace — frames from the root to that function,
        each formatted ``qualname (path:line)``. Shortest (first-found)
        traces win. ``prune``, when given, is a predicate on
        :class:`CallTarget`: edges into matching callees are not
        followed (the callee is neither visited nor traversed).
        """
        visited: dict[tuple[int, int], tuple[CallTarget, tuple[str, ...]]] = {}
        queue: deque[tuple[CallTarget, tuple[str, ...]]] = deque(roots)
        while queue:
            target, trace = queue.popleft()
            if target.key in visited:
                continue
            visited[target.key] = (target, trace)
            env = self.local_types(target.func, target.self_cls)
            for call in self.calls_of(target.func):
                for callee in self.resolve_call(
                    call, target.func, target.self_cls, env
                ):
                    if callee.key in visited:
                        continue
                    if prune is not None and prune(callee):
                        continue
                    hop = target.func.frame(call.lineno)
                    queue.append((callee, trace + (hop,)))
        return visited
