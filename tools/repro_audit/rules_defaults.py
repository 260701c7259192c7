"""RL003 — no mutable default arguments.

A mutable default (``def f(x, acc=[])``) is created once at function
definition time and shared across calls. In an estimator library this is
a determinism hazard of the same family as global RNG state: results
come to depend on call history rather than on arguments, so a figure
regenerated in a fresh process differs from one produced mid-session.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.astkit import ModuleInfo, ProjectModel
from tools.repro_audit.core import Finding, ModuleRule, register

__all__ = ["NoMutableDefaults"]

_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in _MUTABLE_CONSTRUCTORS
    return False


@register
class NoMutableDefaults(ModuleRule):
    """RL003: default argument values must not be mutable containers.

    Flags list/dict/set/comprehension literals and bare
    ``list()``/``dict()``/``set()``/``bytearray()`` calls used as
    defaults, in every function and method (nested ones included).
    Use ``None`` and materialise inside the body instead.
    """

    code = "RL003"
    summary = "no mutable default argument values"

    def check_module(
        self, info: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            named = args.posonlyargs + args.args
            positional = named[len(named) - len(args.defaults):] if args.defaults else []
            names = [a.arg for a in positional] + [
                a.arg
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            label = getattr(node, "name", "<lambda>")
            for param, default in zip(names, defaults):
                if _is_mutable_default(default):
                    yield self.finding(
                        info,
                        default,
                        f"mutable default for parameter '{param}' of "
                        f"'{label}' is shared across calls; default to None "
                        f"and create the container in the body",
                    )
