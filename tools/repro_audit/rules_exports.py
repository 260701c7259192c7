"""RL004 — explicit, resolvable public module surfaces.

Every library module must declare ``__all__``, every name in it must
actually be bound in the module, and package ``__init__`` re-exports
must resolve against the scanned tree. This keeps ``from repro import
*`` stable, makes the public API diffable in review, and catches the
classic refactoring bug where a function is renamed but the package
``__init__`` (or ``__all__``) still advertises the old name — an error
that otherwise only surfaces at import time on a user's machine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.astkit import ModuleInfo, ProjectModel
from tools.repro_audit.core import Finding, ModuleRule, register

__all__ = ["ExplicitExports"]


def _find_all(tree: ast.Module) -> tuple[ast.stmt | None, list[str] | None]:
    """Locate the top-level ``__all__`` assignment and its string items.

    Returns ``(node, names)``; ``names`` is None when ``__all__`` is not
    a static list/tuple of string literals.
    """
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        value = node.value
        if not isinstance(value, (ast.List, ast.Tuple)):
            return node, None
        names: list[str] = []
        for element in value.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return node, None
            names.append(element.value)
        return node, names
    return None, None


@register
class ExplicitExports(ModuleRule):
    """RL004: ``__all__`` must exist, be static, and resolve.

    Checks, for every library module (``conftest.py``, ``setup.py`` and
    ``__main__.py`` entry points are exempt):

    * a top-level ``__all__`` assignment exists;
    * it is a list/tuple of string literals (machine-readable);
    * it contains no duplicates;
    * every listed name is bound at module top level (defined or
      imported);
    * every ``from <scanned package> import name`` statement resolves:
      the source module is in the scanned tree and binds ``name`` (or
      ``name`` is one of its submodules). This is what keeps package
      ``__init__`` re-export hubs honest.
    """

    code = "RL004"
    summary = "__all__ must exist and list only names bound in the module"

    _EXEMPT_FILES = frozenset({"__main__.py", "conftest.py", "setup.py"})

    def check_module(
        self, info: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:
        if not info.is_library or info.path.name in self._EXEMPT_FILES:
            return

        node, names = _find_all(info.tree)
        if node is None:
            yield self.finding(
                info,
                None,
                f"module '{info.module}' does not declare __all__; list its "
                f"public API explicitly",
            )
        elif names is None:
            yield self.finding(
                info,
                node,
                "__all__ must be a static list/tuple of string literals",
            )
        else:
            bound = info.top_level_bindings()
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    yield self.finding(
                        info, node, f"duplicate name '{name}' in __all__"
                    )
                seen.add(name)
                if name not in bound:
                    yield self.finding(
                        info,
                        node,
                        f"__all__ lists '{name}' which is not defined or "
                        f"imported in '{info.module}'",
                    )

        # Re-export resolution for imports within the scanned tree.
        for stmt in info.tree.body:
            if not isinstance(stmt, ast.ImportFrom) or stmt.level:
                continue
            source = stmt.module
            if source is None:
                continue
            source_info = project.resolve_module(source)
            if source_info is None:
                if not any(
                    m == source or m.startswith(source + ".")
                    for m in project.by_name
                ):
                    continue  # outside the scanned tree (stdlib, numpy, ...)
                yield self.finding(
                    info,
                    stmt,
                    f"import from '{source}' cannot resolve: package has no "
                    f"such module in the scanned tree",
                )
                continue
            source_bound = source_info.top_level_bindings()
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                if alias.name in source_bound:
                    continue
                if project.has_submodule(source, alias.name):
                    continue
                yield self.finding(
                    info,
                    stmt,
                    f"'from {source} import {alias.name}' does not resolve: "
                    f"'{alias.name}' is not bound in '{source}'",
                )
