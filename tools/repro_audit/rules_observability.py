"""RL007 — observability discipline: no stray stdout or wall-clock reads.

Library code that calls bare ``print()`` writes to whatever stdout
happens to be at call time — reports become un-capturable, benchmarks
get polluted, and parallel runs interleave. Library code that reads
``time.time()`` bakes an ambient, non-monotonic clock into results.
Both have sanctioned routes: user-facing text goes through an explicit
stream (``print(..., file=stream)`` or the reporting renderers) and
durations go through ``repro.obs`` (:class:`repro.obs.Stopwatch` or a
recorder phase). This rule machine-checks the convention.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.astkit import ModuleInfo, ProjectModel
from tools.repro_audit.core import Finding, ModuleRule, register

__all__ = ["ObservabilityDiscipline"]


def _time_aliases(tree: ast.Module) -> set[str]:
    """Names bound in this module that refer to the ``time`` module."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    aliases.add(alias.asname or "time")
    return aliases


@register
class ObservabilityDiscipline(ModuleRule):
    """RL007: no bare ``print()`` and no ``time.time()`` in library code.

    Flags, outside ``tests/``/``benchmarks/``/``examples/`` and
    ``__main__.py`` files:

    * ``print(...)`` calls without an explicit ``file=`` argument —
      they write to the global stdout; route reports through an
      explicit stream or the reporting/obs layers;
    * ``time.time()`` calls and ``from time import time`` imports —
      wall-clock reads belong in ``repro.obs`` (``Stopwatch`` /
      recorder phases), which uses the monotonic clock.
    """

    code = "RL007"
    summary = "no bare print() or time.time() in library code"

    def check_module(
        self, info: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:
        if not info.is_library or info.is_main:
            return
        time_aliases = _time_aliases(info.tree)
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        yield self.finding(
                            info,
                            node,
                            "import of 'time.time' in library code; use "
                            "repro.obs (Stopwatch / recorder phases) for "
                            "durations",
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                if not any(kw.arg == "file" for kw in node.keywords):
                    yield self.finding(
                        info,
                        node,
                        "bare print() writes to global stdout in library "
                        "code; pass an explicit file= stream or route "
                        "through the reporting/obs layers",
                    )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
            ):
                yield self.finding(
                    info,
                    node,
                    "time.time() reads the ambient wall clock in library "
                    "code; use repro.obs (Stopwatch / recorder phases) "
                    "instead",
                )
