"""RL008 — parallelism discipline: workers only via ``repro.parallel``.

The parallel backend owns three contracts that ad-hoc worker pools
silently break: results must be byte-identical for any worker count
(random draws stay on the caller's single generator), every worker's
``repro.obs`` counters must be merged back into the ambient recorder
(manifests stay accurate under parallelism), and every task must run
under the coordinator's run configuration (``repro.config``: worker
count, backend kind, shards, density backend, fault policy), which the
harness ships to each worker. Library code that imports ``multiprocessing`` or
``concurrent.futures`` directly bypasses all three; this rule pins
those imports to ``repro.parallel`` itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.astkit import ModuleInfo, ProjectModel
from tools.repro_audit.core import Finding, ModuleRule, register

__all__ = ["ParallelismDiscipline"]

#: Module roots whose import marks a hand-rolled worker pool.
_FORBIDDEN_ROOTS = ("multiprocessing", "concurrent")


def _root(name: str) -> str:
    return name.split(".", 1)[0]


@register
class ParallelismDiscipline(ModuleRule):
    """RL008: no direct ``multiprocessing`` / ``concurrent.futures`` use.

    Flags, in library code outside the ``repro.parallel`` package:

    * ``import multiprocessing`` / ``import concurrent.futures``
      (and aliased forms);
    * ``from multiprocessing import ...`` / ``from concurrent import
      futures`` / ``from concurrent.futures import ...``.

    Parallel execution goes through :mod:`repro.parallel`
    (``parallel_map_chunks`` or an execution backend), which preserves
    the determinism contract and recorder aggregation.
    """

    code = "RL008"
    summary = (
        "multiprocessing/concurrent.futures only inside repro.parallel"
    )

    def check_module(
        self, info: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:
        if not info.is_library:
            return
        if info.module == "repro.parallel" or info.module.startswith(
            "repro.parallel."
        ):
            return
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _root(alias.name) in _FORBIDDEN_ROOTS:
                        yield self.finding(
                            info,
                            node,
                            f"direct import of {alias.name!r}; route "
                            "parallel execution through repro.parallel "
                            "(parallel_map_chunks / get_backend) so "
                            "determinism and recorder aggregation hold",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and _root(node.module) in _FORBIDDEN_ROOTS:
                    yield self.finding(
                        info,
                        node,
                        f"direct import from {node.module!r}; route "
                        "parallel execution through repro.parallel "
                        "(parallel_map_chunks / get_backend) so "
                        "determinism and recorder aggregation hold",
                    )
