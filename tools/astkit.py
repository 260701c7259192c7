"""Shared AST toolkit for the repo's static-analysis passes.

The in-house analyser, ``tools/repro_audit``, stands on this
substrate: walk paths for Python files, parse them without importing
anything, name each file as a dotted module, collect per-file
suppression comments, and address sibling modules through a light
project model. The analyser layers its rule machinery on top.

The whole kit is import-free with respect to the analysed code: files
are only ever read and parsed, so broken or dependency-missing trees
can still be analysed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "LIBRARY_EXCLUDED_PARTS",
    "BasicBlock",
    "ControlFlowGraph",
    "ModuleInfo",
    "ProjectModel",
    "SyntaxIssue",
    "bindings_of",
    "build_cfg",
    "build_model",
    "collect_python_files",
    "display_path",
    "module_name",
    "parse_suppressions",
]

#: Directory names whose files are not "library code" (rules that only
#: apply to the shipped library, like RL001, skip them).
LIBRARY_EXCLUDED_PARTS = frozenset({"tests", "benchmarks", "examples"})


#: Matches ``# repro-audit: disable=<codes>``: comma-separated codes
#: such as ``RA002,RL004``, any run of capital letters then 3 digits.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-audit\s*:\s*disable\s*=\s*"
    r"(?P<codes>[A-Z]+\d{3}(?:\s*,\s*[A-Z]+\d{3})*)"
)


def parse_suppressions(source: str) -> frozenset[str]:
    """Rule codes disabled for a file via ``# repro-audit: disable=...``."""
    codes: set[str] = set()
    for match in _SUPPRESS_RE.finditer(source):
        codes.update(c.strip() for c in match.group("codes").split(","))
    return frozenset(codes)


@dataclass
class ModuleInfo:
    """A parsed source file plus the metadata rules need.

    Attributes
    ----------
    path:
        Filesystem path of the file.
    display_path:
        Path string used in reports (relative when possible).
    module:
        Dotted module name (``repro.density.kde``) when the file sits in
        a package; the bare stem otherwise.
    tree:
        Parsed :class:`ast.Module`.
    source:
        Raw file contents.
    suppressed:
        Rule codes disabled for this file.
    is_library:
        False for files under ``tests/``, ``benchmarks/`` or
        ``examples/`` directories.
    """

    path: Path
    display_path: str
    module: str
    tree: ast.Module
    source: str
    suppressed: frozenset[str] = frozenset()
    is_library: bool = True

    @property
    def is_init(self) -> bool:
        return self.path.name == "__init__.py"

    @property
    def is_main(self) -> bool:
        return self.path.name == "__main__.py"

    def top_level_bindings(self) -> set[str]:
        """Names bound at module top level (defs, classes, imports, assigns)."""
        bound: set[str] = set()
        for node in self.tree.body:
            bound.update(bindings_of(node))
        return bound


#: Nodes that open a new scope — walruses inside them bind there, not
#: in the enclosing module namespace.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _target_names(target: ast.expr) -> Iterator[str]:
    """Names one assignment target *binds*. Attribute and subscript
    stores (``self.x += 1``, ``d[k] = v``) mutate an existing object
    rather than bind a name, so they yield nothing."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)


def _walrus_names(node: ast.AST) -> Iterator[str]:
    """Module-scope names bound by ``:=`` anywhere in a statement.

    PEP 572: a walrus inside a comprehension binds in the *containing*
    scope, so a top-level comprehension's walrus lands in the module
    namespace — the recursion therefore descends through comprehension
    nodes. Walruses inside a nested function/class/lambda bind in that
    scope and are skipped, except for the parts of such a definition
    that are evaluated in the enclosing scope (decorators, parameter
    defaults, base-class expressions).
    """
    if isinstance(node, _SCOPE_NODES):
        outer: list[ast.AST] = list(getattr(node, "decorator_list", []))
        args = getattr(node, "args", None)
        if args is not None:
            outer += list(args.defaults)
            outer += [d for d in args.kw_defaults if d is not None]
        if isinstance(node, ast.ClassDef):
            outer += list(node.bases)
            outer += [kw.value for kw in node.keywords]
        for sub in outer:
            yield from _walrus_names(sub)
        return
    if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
        yield node.target.id
    for child in ast.iter_child_nodes(node):
        yield from _walrus_names(child)


def bindings_of(node: ast.stmt) -> Iterator[str]:
    """Names a single top-level statement binds in the module namespace."""
    yield from _walrus_names(node)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0]
    elif isinstance(node, ast.ImportFrom):
        for alias in node.names:
            if alias.name == "*":
                continue
            yield alias.asname or alias.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            yield from _target_names(target)
    elif isinstance(node, (ast.If, ast.Try)):
        # Conditional definitions (version gates, optional imports).
        bodies = [node.body, getattr(node, "orelse", [])]
        for handler in getattr(node, "handlers", []):
            bodies.append(handler.body)
        bodies.append(getattr(node, "finalbody", []))
        for body in bodies:
            for sub in body:
                yield from bindings_of(sub)


class ProjectModel:
    """All parsed modules of one analysis run, addressable by dotted name.

    Cross-module rules (re-export resolution, base-class conformance,
    call-graph construction) use this to look at sibling files without
    importing anything.
    """

    def __init__(self, modules: Iterable[ModuleInfo]):
        self.modules: list[ModuleInfo] = list(modules)
        self.by_name: dict[str, ModuleInfo] = {}
        for info in self.modules:
            self.by_name.setdefault(info.module, info)

    def resolve_module(self, dotted: str) -> ModuleInfo | None:
        """The scanned module with dotted name ``dotted``, if any."""
        return self.by_name.get(dotted)

    def has_submodule(self, package: str, name: str) -> bool:
        """Whether ``package.name`` is a scanned module or package."""
        dotted = f"{package}.{name}"
        return dotted in self.by_name or any(
            m.startswith(dotted + ".") for m in self.by_name
        )

    def class_def(self, module: str, name: str) -> tuple[ModuleInfo, ast.ClassDef] | None:
        """Find class ``name`` in ``module``, following its imports once.

        Returns the (module, ClassDef) pair where the class body actually
        lives, chasing ``from x import name`` links through the project.
        """
        seen: set[tuple[str, str]] = set()
        current = module
        target = name
        while (current, target) not in seen:
            seen.add((current, target))
            info = self.by_name.get(current)
            if info is None:
                return None
            for node in info.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == target:
                    return info, node
            # Not defined here: is it imported from a sibling?
            for node in info.tree.body:
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        if (alias.asname or alias.name) == target:
                            current, target = node.module, alias.name
                            break
                    else:
                        continue
                    break
            else:
                return None
        return None


def collect_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(
                p
                for p in path.rglob("*.py")
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def module_name(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def display_path(path: Path) -> str:
    """Path string for reports: relative to the cwd when possible."""
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


# ---------------------------------------------------------------------------
# Per-function control-flow graphs
#
# Flow-sensitive audit rules (must-release lifecycles, dominance-based
# ordering proofs) need more than the call graph: they need to know, for
# one function body, which statements can follow which — including the
# paths an exception takes. ``build_cfg`` lowers a function body into
# basic blocks with two edge kinds:
#
# * *normal* edges — fallthrough, branches, loop back/exit edges;
# * *exception* edges — from any block whose last statement may raise
#   (contains a call, an ``assert``, or an explicit ``raise``) to the
#   innermost enclosing handler entries, or to the synthetic exit block
#   when the exception would escape the function.
#
# Deliberate approximations (documented in DESIGN.md §15):
#
# * A statement "may raise" iff it contains a call / assert / raise /
#   await; attribute access, subscripts and arithmetic are assumed
#   non-raising. Every may-raise statement terminates its block, so an
#   exception edge always describes raising *at* the block's final
#   statement — queries can therefore distinguish "raised at the
#   acquire" from "raised after it".
# * ``except`` clauses are not type-matched: an exception edge goes to
#   every handler entry, and additionally escapes past the handlers
#   unless some clause is a catch-all (bare ``except``, ``except
#   BaseException``/``Exception``).
# * A ``finally`` body is built once; its exits conservatively edge to
#   the normal continuation, the enclosing exception target and the
#   function exit (covering completion, propagation and return paths).
# * ``with`` bodies propagate exceptions to the enclosing target —
#   ``__exit__`` is treated as transparent.
# * ``return``/``break``/``continue`` route through the innermost
#   enclosing ``finally`` when one is active.
# * Nested ``def``/``lambda`` bodies are opaque single statements; their
#   statements belong to their own CFG, never the enclosing one.


@dataclass
class BasicBlock:
    """A straight-line run of statements with typed successor edges.

    ``succs`` are normal control-flow successors; ``exc_succs`` are the
    blocks an exception raised at this block's final statement can
    reach. A block holds at most one may-raise statement, always last.
    """

    index: int
    statements: list[ast.stmt] = field(default_factory=list)
    succs: set[int] = field(default_factory=set)
    exc_succs: set[int] = field(default_factory=set)


@dataclass
class _CfgContext:
    """Builder state: where exceptions, breaks and continues go.

    ``finally_entry`` intercepts ``return`` (any enclosing ``finally``
    runs before the function exits); ``loop_finally`` intercepts
    ``break``/``continue`` and is only set when the ``try`` sits
    *inside* the loop — breaking out of a loop that encloses no ``try``
    never runs a ``finally`` outside it.
    """

    exc_targets: tuple[int, ...]
    loop_header: int | None = None
    loop_exit: int | None = None
    finally_entry: int | None = None
    loop_finally: int | None = None


class ControlFlowGraph:
    """Basic blocks of one function body plus dominance queries.

    Block 0 is the entry; :attr:`exit_index` is a synthetic exit that
    every ``return``, escaped exception and normal completion reaches.
    Use :meth:`block_index` to map a statement to its block and
    :meth:`dominates` / :meth:`postdominates` /
    :meth:`reaches_exit_avoiding` for path queries.
    """

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef):
        self.func = func
        self.blocks: list[BasicBlock] = []
        self._block_of: dict[int, int] = {}
        self._doms: dict[int, set[int]] | None = None
        self._postdoms: dict[int, set[int]] | None = None
        self.entry_index = self._new_block()
        self.exit_index = self._new_block()
        ctx = _CfgContext(exc_targets=(self.exit_index,))
        last = self._build_body(func.body, self.entry_index, ctx)
        if last is not None:
            self.blocks[last].succs.add(self.exit_index)

    # -- construction ------------------------------------------------------

    def _new_block(self) -> int:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        return block.index

    def _place(self, stmt: ast.stmt, block: int) -> None:
        self.blocks[block].statements.append(stmt)
        self._block_of[id(stmt)] = block

    @staticmethod
    def _walk_same_frame(root: ast.AST) -> Iterator[ast.AST]:
        """``ast.walk`` pruned at nested defs/lambdas.

        A nested def's body runs later, in its own CFG; its statements
        must not make the enclosing ``def`` statement may-raise. Only
        decorators and default expressions execute in this frame.
        """
        stack: list[ast.AST] = [root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                stack.extend(getattr(node, "decorator_list", []))
                args = node.args
                stack.extend(d for d in args.defaults if d is not None)
                stack.extend(d for d in args.kw_defaults if d is not None)
            else:
                stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _may_raise(cls, stmt: ast.stmt) -> bool:
        return any(
            isinstance(node, (ast.Call, ast.Raise, ast.Assert, ast.Await))
            for node in cls._walk_same_frame(stmt)
        )

    @classmethod
    def _expr_may_raise(cls, expr: ast.expr | None) -> bool:
        if expr is None:
            return False
        return any(
            isinstance(node, (ast.Call, ast.Await))
            for node in cls._walk_same_frame(expr)
        )

    def _build_body(
        self, body: list[ast.stmt], current: int | None, ctx: _CfgContext
    ) -> int | None:
        """Lower ``body`` starting in block ``current``.

        Returns the block normal control falls out of, or ``None`` when
        every path through the body diverts (returns, raises, breaks).
        Statements after a divert land in a fresh unreachable block so
        they still have a :meth:`block_index`.
        """
        for stmt in body:
            if current is None:
                current = self._new_block()
            current = self._build_stmt(stmt, current, ctx)
        return current

    def _build_stmt(
        self, stmt: ast.stmt, current: int, ctx: _CfgContext
    ) -> int | None:
        if isinstance(stmt, ast.Return):
            self._place(stmt, current)
            if self._expr_may_raise(stmt.value):
                self.blocks[current].exc_succs.update(ctx.exc_targets)
            target = (
                ctx.finally_entry
                if ctx.finally_entry is not None
                else self.exit_index
            )
            self.blocks[current].succs.add(target)
            return None
        if isinstance(stmt, ast.Raise):
            self._place(stmt, current)
            self.blocks[current].exc_succs.update(ctx.exc_targets)
            return None
        if isinstance(stmt, ast.Break):
            self._place(stmt, current)
            target = (
                ctx.loop_finally
                if ctx.loop_finally is not None
                else ctx.loop_exit
            )
            self.blocks[current].succs.add(
                target if target is not None else self.exit_index
            )
            return None
        if isinstance(stmt, ast.Continue):
            self._place(stmt, current)
            target = (
                ctx.loop_finally
                if ctx.loop_finally is not None
                else ctx.loop_header
            )
            self.blocks[current].succs.add(
                target if target is not None else self.exit_index
            )
            return None
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, current, ctx)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, current, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, current, ctx)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, current, ctx)
        if isinstance(stmt, ast.Match):
            return self._build_match(stmt, current, ctx)
        # Simple statement (incl. nested defs, which stay opaque).
        self._place(stmt, current)
        if self._may_raise(stmt):
            self.blocks[current].exc_succs.update(ctx.exc_targets)
            nxt = self._new_block()
            self.blocks[current].succs.add(nxt)
            return nxt
        return current

    def _header(self, stmt: ast.stmt, current: int, ctx: _CfgContext) -> int:
        """A compound statement's header gets its own block; evaluating
        the test/iterable/context expression may itself raise."""
        header = self._new_block()
        self.blocks[current].succs.add(header)
        self._place(stmt, header)
        test = getattr(stmt, "test", None) or getattr(stmt, "iter", None)
        items = getattr(stmt, "items", None)
        exprs = [test] if test is not None else []
        if items:
            exprs.extend(item.context_expr for item in items)
        if getattr(stmt, "subject", None) is not None:
            exprs.append(stmt.subject)
        if any(self._expr_may_raise(e) for e in exprs):
            self.blocks[header].exc_succs.update(ctx.exc_targets)
        return header

    def _build_if(self, stmt: ast.If, current: int, ctx: _CfgContext) -> int | None:
        header = self._header(stmt, current, ctx)
        after = self._new_block()
        body_entry = self._new_block()
        self.blocks[header].succs.add(body_entry)
        body_exit = self._build_body(stmt.body, body_entry, ctx)
        if body_exit is not None:
            self.blocks[body_exit].succs.add(after)
        if stmt.orelse:
            else_entry = self._new_block()
            self.blocks[header].succs.add(else_entry)
            else_exit = self._build_body(stmt.orelse, else_entry, ctx)
            if else_exit is not None:
                self.blocks[else_exit].succs.add(after)
        else:
            self.blocks[header].succs.add(after)
        return after

    def _build_loop(self, stmt, current: int, ctx: _CfgContext) -> int:
        header = self._header(stmt, current, ctx)
        after = self._new_block()
        body_entry = self._new_block()
        self.blocks[header].succs.update({body_entry, after})
        loop_ctx = _CfgContext(
            exc_targets=ctx.exc_targets,
            loop_header=header,
            loop_exit=after,
            finally_entry=ctx.finally_entry,
            loop_finally=None,
        )
        body_exit = self._build_body(stmt.body, body_entry, loop_ctx)
        if body_exit is not None:
            self.blocks[body_exit].succs.add(header)
        if stmt.orelse:
            else_exit = self._build_body(stmt.orelse, self._new_block(), ctx)
            entry = self._block_of[id(stmt.orelse[0])]
            self.blocks[header].succs.add(entry)
            if else_exit is not None:
                self.blocks[else_exit].succs.add(after)
        return after

    def _build_with(self, stmt, current: int, ctx: _CfgContext) -> int | None:
        header = self._header(stmt, current, ctx)
        body_exit = self._build_body(stmt.body, header, ctx)
        if body_exit is None:
            return None
        if body_exit == header:
            # Empty-ish body folded into the header: still start a fresh
            # block so the with's scope boundary is visible.
            after = self._new_block()
            self.blocks[header].succs.add(after)
            return after
        return body_exit

    def _build_match(self, stmt, current: int, ctx: _CfgContext) -> int:
        header = self._header(stmt, current, ctx)
        after = self._new_block()
        self.blocks[header].succs.add(after)
        for case in stmt.cases:
            entry = self._new_block()
            self.blocks[header].succs.add(entry)
            case_exit = self._build_body(case.body, entry, ctx)
            if case_exit is not None:
                self.blocks[case_exit].succs.add(after)
        return after

    def _build_try(self, stmt: ast.Try, current: int, ctx: _CfgContext) -> int | None:
        after = self._new_block()
        self._block_of.setdefault(id(stmt), current)

        fin_entry: int | None = None
        fin_exit: int | None = None
        if stmt.finalbody:
            fin_entry = self._new_block()
            fin_exit = self._build_body(stmt.finalbody, fin_entry, ctx)

        handler_entries: list[int] = []
        catch_all = False
        for handler in stmt.handlers:
            handler_entries.append(self._new_block())
            catch_all = catch_all or self._handler_catches_all(handler)

        # Exception targets inside the try body: every handler entry,
        # plus escape (through finally, then outward) unless a clause
        # catches everything.
        escape: tuple[int, ...] = (
            (fin_entry,) if fin_entry is not None else ctx.exc_targets
        )
        body_targets = tuple(handler_entries) + (() if stmt.handlers and catch_all else escape)
        loop_finally = ctx.loop_finally
        if fin_entry is not None and ctx.loop_header is not None:
            loop_finally = fin_entry
        body_ctx = _CfgContext(
            exc_targets=body_targets or escape,
            loop_header=ctx.loop_header,
            loop_exit=ctx.loop_exit,
            finally_entry=fin_entry if fin_entry is not None else ctx.finally_entry,
            loop_finally=loop_finally,
        )
        body_entry = self._new_block()
        self.blocks[current].succs.add(body_entry)
        body_exit = self._build_body(stmt.body, body_entry, body_ctx)

        # Handler and else bodies: exceptions propagate outward (through
        # the finally when present).
        inner_targets = (
            (fin_entry,) if fin_entry is not None else ctx.exc_targets
        )
        inner_ctx = _CfgContext(
            exc_targets=inner_targets,
            loop_header=ctx.loop_header,
            loop_exit=ctx.loop_exit,
            finally_entry=fin_entry if fin_entry is not None else ctx.finally_entry,
            loop_finally=loop_finally,
        )
        join = fin_entry if fin_entry is not None else after
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_exit = self._build_body(handler.body, entry, inner_ctx)
            if handler_exit is not None:
                self.blocks[handler_exit].succs.add(join)
        if body_exit is not None:
            if stmt.orelse:
                else_exit = self._build_body(
                    stmt.orelse, body_exit, inner_ctx
                )
                if else_exit is not None:
                    self.blocks[else_exit].succs.add(join)
            else:
                self.blocks[body_exit].succs.add(join)

        if fin_entry is not None and fin_exit is not None:
            # Completion, propagation, return and loop-control paths
            # all traverse the finally; over-approximate its exits.
            self.blocks[fin_exit].succs.add(after)
            self.blocks[fin_exit].succs.add(self.exit_index)
            self.blocks[fin_exit].exc_succs.update(ctx.exc_targets)
            if ctx.loop_exit is not None:
                self.blocks[fin_exit].succs.add(ctx.loop_exit)
            if ctx.loop_header is not None:
                self.blocks[fin_exit].succs.add(ctx.loop_header)
        return after

    @staticmethod
    def _handler_catches_all(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        names: list[ast.expr] = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for expr in names:
            tail = expr.attr if isinstance(expr, ast.Attribute) else None
            if isinstance(expr, ast.Name):
                tail = expr.id
            if tail in ("BaseException", "Exception"):
                return True
        return False

    # -- queries -----------------------------------------------------------

    def block_index(self, stmt: ast.stmt) -> int | None:
        """The block holding ``stmt`` (header block for compounds)."""
        return self._block_of.get(id(stmt))

    def successors(self, index: int) -> set[int]:
        block = self.blocks[index]
        return block.succs | block.exc_succs

    def predecessors(self) -> dict[int, set[int]]:
        preds: dict[int, set[int]] = {b.index: set() for b in self.blocks}
        for block in self.blocks:
            for succ in self.successors(block.index):
                preds[succ].add(block.index)
        return preds

    def _reachable_from_entry(self) -> set[int]:
        seen = {self.entry_index}
        stack = [self.entry_index]
        while stack:
            for succ in self.successors(stack.pop()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def dominators(self) -> dict[int, set[int]]:
        """Iterative dominator sets over normal + exception edges.

        Blocks unreachable from the entry are reported as dominated by
        everything (the conventional bottom value).
        """
        if self._doms is not None:
            return self._doms
        reachable = self._reachable_from_entry()
        preds = self.predecessors()
        everything = {b.index for b in self.blocks}
        doms = {b.index: set(everything) for b in self.blocks}
        doms[self.entry_index] = {self.entry_index}
        changed = True
        while changed:
            changed = False
            for index in sorted(reachable - {self.entry_index}):
                incoming = [doms[p] for p in preds[index] if p in reachable]
                new = set.intersection(*incoming) if incoming else set()
                new = new | {index}
                if new != doms[index]:
                    doms[index] = new
                    changed = True
        self._doms = doms
        return doms

    def postdominators(self) -> dict[int, set[int]]:
        """Postdominator sets: blocks every path to the exit crosses."""
        if self._postdoms is not None:
            return self._postdoms
        preds = self.predecessors()  # reversed-graph successors
        everything = {b.index for b in self.blocks}
        post = {b.index: set(everything) for b in self.blocks}
        post[self.exit_index] = {self.exit_index}
        changed = True
        while changed:
            changed = False
            for block in self.blocks:
                index = block.index
                if index == self.exit_index:
                    continue
                outgoing = [post[s] for s in self.successors(index)]
                new = set.intersection(*outgoing) if outgoing else set()
                new = new | {index}
                if new != post[index]:
                    post[index] = new
                    changed = True
        self._postdoms = post
        return post

    def dominates(self, a: int, b: int) -> bool:
        """Whether every path from the entry to ``b`` crosses ``a``."""
        return a in self.dominators()[b]

    def postdominates(self, a: int, b: int) -> bool:
        """Whether every path from ``b`` to the exit crosses ``a``."""
        return a in self.postdominators()[b]

    def reaches_exit_avoiding(self, start: int, barriers: set[int]) -> bool:
        """Whether some path from ``start`` reaches the exit without
        entering any barrier block. ``start`` itself is not a barrier."""
        if start == self.exit_index:
            return True
        seen = {start}
        stack = [start]
        while stack:
            for succ in self.successors(stack.pop()):
                if succ in barriers or succ in seen:
                    continue
                if succ == self.exit_index:
                    return True
                seen.add(succ)
                stack.append(succ)
        return False


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> ControlFlowGraph:
    """Build the per-function control-flow graph for ``func``."""
    return ControlFlowGraph(func)


@dataclass(frozen=True)
class SyntaxIssue:
    """A file that failed to parse (reported instead of aborting)."""

    path: str
    line: int
    col: int
    message: str


def build_model(files: Iterable[Path]) -> tuple[ProjectModel, list[SyntaxIssue]]:
    """Parse ``files`` into a :class:`ProjectModel`.

    Syntax errors become :class:`SyntaxIssue` records rather than
    aborting the run.
    """
    infos: list[ModuleInfo] = []
    errors: list[SyntaxIssue] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            errors.append(
                SyntaxIssue(
                    path=display_path(path),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        infos.append(
            ModuleInfo(
                path=path,
                display_path=display_path(path),
                module=module_name(path),
                tree=tree,
                source=source,
                suppressed=parse_suppressions(source),
                is_library=not (
                    LIBRARY_EXCLUDED_PARTS & set(path.resolve().parts)
                ),
            )
        )
    return ProjectModel(infos), errors
