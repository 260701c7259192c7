"""Edge-case tests for the shared AST substrate (``tools/astkit``).

The call graph and both analysers resolve module-level names through
``ModuleInfo.top_level_bindings`` / ``bindings_of``, so scoping mistakes
here silently break cross-module resolution everywhere downstream. The
cases below pin the subtle corners: walrus targets (including PEP 572's
comprehension-scope escape), augmented assignment to attributes vs
names, ``try/finally`` re-binding, and nested unpacking targets.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from tools.astkit import (
    ModuleInfo,
    bindings_of,
    build_model,
    collect_python_files,
    module_name,
    parse_suppressions,
)


def _bindings(source: str) -> set[str]:
    tree = ast.parse(textwrap.dedent(source))
    bound: set[str] = set()
    for node in tree.body:
        bound.update(bindings_of(node))
    return bound


# ---------------------------------------------------------------------------
# Plain binding statements


class TestBasicBindings:
    def test_defs_classes_imports(self):
        assert _bindings(
            """
            import os
            import os.path
            import numpy as np
            from sys import argv, path as syspath
            from x import *

            def f():
                pass

            class C:
                pass
            """
        ) == {"os", "np", "argv", "syspath", "f", "C"}

    def test_tuple_and_starred_unpacking(self):
        assert _bindings("a, (b, [c, *rest]) = value\n") == {
            "a",
            "b",
            "c",
            "rest",
        }

    def test_conditional_definitions(self):
        assert _bindings(
            """
            if fast:
                impl = 1
            else:
                impl = 2
            try:
                import ujson as json
            except ImportError:
                import json
            """
        ) == {"impl", "json"}


# ---------------------------------------------------------------------------
# Augmented assignment


class TestAugAssign:
    def test_aug_assign_to_name_binds(self):
        assert _bindings("total += 1\n") == {"total"}

    def test_aug_assign_to_attribute_binds_nothing(self):
        # ``self.x += 1`` mutates the object bound to ``self``; it must
        # not surface ``self`` (or anything) as a module-level binding.
        assert _bindings("obj.count += 1\n") == set()

    def test_subscript_stores_bind_nothing(self):
        assert _bindings("d[key] = value\nd[key] += 1\n") == set()

    def test_attribute_assign_binds_nothing(self):
        assert _bindings("cfg.debug = True\n") == set()


# ---------------------------------------------------------------------------
# try/finally


class TestTryFinally:
    def test_finally_rebinding_is_seen(self):
        # A name (re)bound only in the ``finally`` block is still a
        # module-level binding — finally always runs.
        assert _bindings(
            """
            try:
                handle = acquire()
            finally:
                released = True
            """
        ) == {"handle", "released"}

    def test_handler_and_orelse_bindings(self):
        assert _bindings(
            """
            try:
                a = 1
            except ValueError:
                b = 2
            else:
                c = 3
            finally:
                d = 4
            """
        ) == {"a", "b", "c", "d"}


# ---------------------------------------------------------------------------
# Walrus (PEP 572)


class TestWalrus:
    def test_walrus_in_expression_statement(self):
        assert _bindings("(n := 10)\n") == {"n"}

    def test_walrus_in_if_test(self):
        assert _bindings(
            """
            if (m := compute()) > 0:
                use(m)
            """
        ) == {"m"}

    def test_walrus_in_top_level_comprehension_binds_module_scope(self):
        # PEP 572: the comprehension's walrus binds in the *containing*
        # scope — at top level, the module namespace. The comprehension
        # variable itself stays comprehension-local.
        assert _bindings("ys = [y := f(x) for x in data]\n") == {"ys", "y"}

    def test_comprehension_loop_variable_stays_local(self):
        assert _bindings("squares = [x * x for x in data]\n") == {"squares"}

    def test_walrus_inside_function_body_stays_local(self):
        assert _bindings(
            """
            def f():
                return (hidden := 1)
            """
        ) == {"f"}

    def test_walrus_in_default_binds_module_scope(self):
        # Parameter defaults evaluate in the enclosing scope at def
        # time, so their walruses bind module-level names.
        assert _bindings(
            """
            def f(x=(fallback := 3)):
                return x
            """
        ) == {"f", "fallback"}

    def test_walrus_in_lambda_body_stays_local(self):
        assert _bindings("g = lambda: (tmp := 1)\n") == {"g"}

    def test_walrus_in_nested_comprehension(self):
        # Nested comprehensions: the inner walrus still propagates to
        # the scope containing the *outermost* comprehension.
        assert _bindings(
            "grid = [[v := g(i, j) for j in cols] for i in rows]\n"
        ) == {"grid", "v"}


# ---------------------------------------------------------------------------
# ModuleInfo / model plumbing


class TestModelPlumbing:
    def test_top_level_bindings_via_build_model(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            textwrap.dedent(
                """
                import ast

                try:
                    fast = True
                finally:
                    slow = False

                if (flag := probe()):
                    alt = 1
                """
            )
        )
        project, issues = build_model(collect_python_files([tmp_path]))
        assert issues == []
        (info,) = project.modules
        assert isinstance(info, ModuleInfo)
        assert info.top_level_bindings() == {
            "ast",
            "fast",
            "slow",
            "flag",
            "alt",
        }

    def test_module_name_walks_packages(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        mod = pkg / "leaf.py"
        mod.write_text("x = 1\n")
        assert module_name(mod) == "pkg.sub.leaf"

    def test_parse_suppressions_tool_scoped(self):
        # One prefix serves both rule families; other tools' comments
        # are not honoured.
        src = (
            "# repro-audit: disable=RA005, RA006\n"
            "# repro-audit: disable=RL001\n"
            "# other-tool: disable=RL002\n"
        )
        assert parse_suppressions(src) == frozenset({"RA005", "RA006", "RL001"})

    def test_syntax_error_becomes_issue(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        project, issues = build_model([bad])
        assert project.modules == []
        assert len(issues) == 1
        assert "syntax error" in issues[0].message


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))


# ---------------------------------------------------------------------------
# Control-flow graphs


def _cfg(source: str):
    from tools.astkit import build_cfg

    tree = ast.parse(textwrap.dedent(source).lstrip("\n"))
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func), func


def _stmt(func: ast.FunctionDef, kind, *, line: int | None = None):
    """First statement of ``kind`` (optionally at ``line``) in ``func``."""
    for node in ast.walk(func):
        if isinstance(node, kind) and (line is None or node.lineno == line):
            return node
    raise AssertionError(f"no {kind.__name__} in function")


class TestCfgStructure:
    def test_straight_line_reaches_exit(self):
        cfg, func = _cfg(
            """
            def f(x):
                y = x + 1
                return y
            """
        )
        ret = _stmt(func, ast.Return)
        block = cfg.block_index(ret)
        assert block is not None
        assert cfg.exit_index in cfg.blocks[block].succs

    def test_may_raise_statement_terminates_its_block(self):
        cfg, func = _cfg(
            """
            def f(x):
                a = 1
                b = g(x)
                c = 2
                return c
            """
        )
        call_assign = _stmt(func, ast.Assign, line=3)
        after = _stmt(func, ast.Assign, line=4)
        b1 = cfg.block_index(call_assign)
        b2 = cfg.block_index(after)
        assert b1 != b2
        # The call may raise: an exception edge escapes to the exit.
        assert cfg.exit_index in cfg.blocks[b1].exc_succs
        # The non-raising assignments carry no exception edges.
        assert not cfg.blocks[b2].exc_succs

    def test_if_branches_rejoin(self):
        cfg, func = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        then_block = cfg.block_index(_stmt(func, ast.Assign, line=3))
        else_block = cfg.block_index(_stmt(func, ast.Assign, line=5))
        ret_block = cfg.block_index(_stmt(func, ast.Return))
        assert then_block != else_block
        assert ret_block in cfg.blocks[then_block].succs
        assert ret_block in cfg.blocks[else_block].succs

    def test_loop_back_edge_and_exit(self):
        cfg, func = _cfg(
            """
            def f(xs):
                total = 0
                for x in xs:
                    total = total + x
                return total
            """
        )
        loop = _stmt(func, ast.For)
        header = cfg.block_index(loop)
        body_block = cfg.block_index(_stmt(func, ast.Assign, line=4))
        ret_block = cfg.block_index(_stmt(func, ast.Return))
        assert header in cfg.blocks[body_block].succs  # back edge
        # Zero-iteration path: the header reaches the loop exit.
        reachable = {header}
        stack = [header]
        while stack:
            for succ in cfg.blocks[stack[-1]].succs | set():
                pass
            node = stack.pop()
            for succ in cfg.successors(node):
                if succ not in reachable:
                    reachable.add(succ)
                    stack.append(succ)
        assert ret_block in reachable


class TestCfgExceptionEdges:
    def test_call_edges_to_handler_and_escape(self):
        cfg, func = _cfg(
            """
            def f(x):
                try:
                    y = g(x)
                except ValueError:
                    y = 0
                return y
            """
        )
        risky = cfg.block_index(_stmt(func, ast.Assign, line=3))
        handler_assign = cfg.block_index(_stmt(func, ast.Assign, line=5))
        exc = cfg.blocks[risky].exc_succs
        # Handlers are not type-matched: the edge reaches the handler
        # entry AND escapes past it (ValueError is not a catch-all).
        assert any(
            handler_assign in cfg.successors(target) or target == handler_assign
            for target in exc
        )
        assert cfg.exit_index in exc

    def test_catch_all_handler_stops_escape(self):
        cfg, func = _cfg(
            """
            def f(x):
                try:
                    y = g(x)
                except Exception:
                    y = 0
                return y
            """
        )
        risky = cfg.block_index(_stmt(func, ast.Assign, line=3))
        assert cfg.exit_index not in cfg.blocks[risky].exc_succs

    def test_bare_raise_has_only_exception_successors(self):
        cfg, func = _cfg(
            """
            def f(x):
                raise ValueError(x)
            """
        )
        block = cfg.block_index(_stmt(func, ast.Raise))
        assert not cfg.blocks[block].succs
        assert cfg.exit_index in cfg.blocks[block].exc_succs


class TestCfgFinally:
    def test_exception_path_runs_finally(self):
        cfg, func = _cfg(
            """
            def f(path):
                handle = acquire(path)
                try:
                    use(handle)
                finally:
                    release(handle)
                return None
            """
        )
        risky = cfg.block_index(
            _stmt(func, ast.Expr, line=4)
        )
        fin = cfg.block_index(_stmt(func, ast.Expr, line=6))
        # Raising inside the try lands in the finally, not the exit.
        assert fin in cfg.blocks[risky].exc_succs
        assert cfg.exit_index not in cfg.blocks[risky].exc_succs

    def test_return_routes_through_finally(self):
        cfg, func = _cfg(
            """
            def f(x):
                try:
                    return x
                finally:
                    cleanup()
            """
        )
        ret = cfg.block_index(_stmt(func, ast.Return))
        fin = cfg.block_index(_stmt(func, ast.Expr, line=5))
        assert fin in cfg.blocks[ret].succs
        assert cfg.exit_index not in cfg.blocks[ret].succs

    def test_break_inside_try_routes_through_finally(self):
        cfg, func = _cfg(
            """
            def f(xs):
                for x in xs:
                    try:
                        if x:
                            break
                    finally:
                        note(x)
                return 1
            """
        )
        brk = cfg.block_index(_stmt(func, ast.Break))
        fin = cfg.block_index(_stmt(func, ast.Expr, line=7))
        assert fin in cfg.blocks[brk].succs

    def test_break_outside_try_skips_outer_finally(self):
        cfg, func = _cfg(
            """
            def f(xs):
                try:
                    for x in xs:
                        if x:
                            break
                finally:
                    note(xs)
                return 1
            """
        )
        # The loop is INSIDE the try: break only exits the loop and
        # stays inside the try, so it must NOT jump to the finally.
        brk = cfg.block_index(_stmt(func, ast.Break))
        fin = cfg.block_index(_stmt(func, ast.Expr, line=7))
        assert fin not in cfg.blocks[brk].succs


class TestCfgWith:
    def test_with_header_carries_exception_edge(self):
        cfg, func = _cfg(
            """
            def f(path):
                with open(path) as fh:
                    data = fh.read()
                return data
            """
        )
        header = cfg.block_index(_stmt(func, ast.With))
        assert cfg.exit_index in cfg.blocks[header].exc_succs

    def test_with_body_statements_have_blocks(self):
        cfg, func = _cfg(
            """
            def f(path):
                with open(path) as fh:
                    data = fh.read()
                return data
            """
        )
        body_assign = cfg.block_index(_stmt(func, ast.Assign, line=3))
        ret = cfg.block_index(_stmt(func, ast.Return))
        assert body_assign is not None
        assert ret is not None


class TestCfgNestedFunctions:
    def test_nested_def_statements_stay_opaque(self):
        cfg, func = _cfg(
            """
            def f(xs):
                def inner(y):
                    return y + 1
                return inner
            """
        )
        inner = _stmt(func, ast.FunctionDef, line=2)
        inner_return = inner.body[0]
        # The nested def itself occupies a block of the outer CFG...
        assert cfg.block_index(inner) is not None
        # ...but its body statements belong to the inner function's CFG.
        assert cfg.block_index(inner_return) is None

    def test_nested_def_body_calls_do_not_raise_in_outer_cfg(self):
        cfg, func = _cfg(
            """
            def f(xs):
                def inner(y):
                    return g(y)
                return inner
            """
        )
        inner = _stmt(func, ast.FunctionDef, line=2)
        block = cfg.block_index(inner)
        assert not cfg.blocks[block].exc_succs


class TestCfgDominance:
    def test_entry_dominates_everything_reachable(self):
        cfg, func = _cfg(
            """
            def f(x):
                if x:
                    a = g(x)
                return x
            """
        )
        ret = cfg.block_index(_stmt(func, ast.Return))
        assert cfg.dominates(cfg.entry_index, ret)

    def test_branch_does_not_dominate_join(self):
        cfg, func = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        then_block = cfg.block_index(_stmt(func, ast.Assign, line=3))
        ret = cfg.block_index(_stmt(func, ast.Return))
        assert not cfg.dominates(then_block, ret)

    def test_postdominance_of_mandatory_join(self):
        cfg, func = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                b = a
                return b
            """
        )
        join = cfg.block_index(_stmt(func, ast.Assign, line=6))
        then_block = cfg.block_index(_stmt(func, ast.Assign, line=3))
        assert cfg.postdominates(join, then_block)

    def test_finally_postdominates_try_body(self):
        cfg, func = _cfg(
            """
            def f(x):
                try:
                    y = g(x)
                finally:
                    cleanup()
                return y
            """
        )
        risky = cfg.block_index(_stmt(func, ast.Assign, line=3))
        fin = cfg.block_index(_stmt(func, ast.Expr, line=5))
        assert cfg.postdominates(fin, risky)

    def test_conditional_release_does_not_postdominate(self):
        cfg, func = _cfg(
            """
            def f(x):
                y = g(x)
                if x:
                    cleanup()
                return y
            """
        )
        acquire = cfg.block_index(_stmt(func, ast.Assign, line=2))
        release = cfg.block_index(_stmt(func, ast.Expr, line=4))
        assert not cfg.postdominates(release, acquire)


class TestReachesExitAvoiding:
    def test_leak_path_found_without_finally(self):
        cfg, func = _cfg(
            """
            def f(path):
                handle = acquire(path)
                use(handle)
                release(handle)
                return None
            """
        )
        acquire = cfg.block_index(_stmt(func, ast.Assign, line=2))
        release = cfg.block_index(_stmt(func, ast.Expr, line=4))
        (succ,) = cfg.blocks[acquire].succs
        # use(handle) may raise before release runs: a leak path exists.
        assert cfg.reaches_exit_avoiding(succ, {release})

    def test_no_leak_path_with_try_finally(self):
        cfg, func = _cfg(
            """
            def f(path):
                handle = acquire(path)
                try:
                    use(handle)
                finally:
                    release(handle)
                return None
            """
        )
        acquire = cfg.block_index(_stmt(func, ast.Assign, line=2))
        release = cfg.block_index(_stmt(func, ast.Expr, line=6))
        assert all(
            succ == release or not cfg.reaches_exit_avoiding(succ, {release})
            for succ in cfg.blocks[acquire].succs
        )

    def test_early_return_inside_try_still_crosses_finally(self):
        cfg, func = _cfg(
            """
            def f(path):
                handle = acquire(path)
                try:
                    if quick(path):
                        return handle
                    use(handle)
                finally:
                    release(handle)
                return None
            """
        )
        acquire = cfg.block_index(_stmt(func, ast.Assign, line=2))
        release = cfg.block_index(_stmt(func, ast.Expr, line=8))
        assert all(
            succ == release or not cfg.reaches_exit_avoiding(succ, {release})
            for succ in cfg.blocks[acquire].succs
        )
