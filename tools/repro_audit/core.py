"""Core machinery for repro-audit: finding model, rule registry, runner.

repro-audit is the repo's static analysis. It parses the analysed tree
once into a project call graph (:mod:`.graph`) and runs two families of
rules over it.

The per-file rules (:class:`ModuleRule`) check one module at a time:

* ``RL001`` — no global-state or unseeded numpy randomness in library
  code.
* ``RL002`` — randomness parameters route through
  ``check_random_state``; no hardcoded seeds.
* ``RL003`` — no mutable default argument values.
* ``RL004`` — ``__all__`` exists in every library module and resolves;
  package re-exports resolve.
* ``RL005`` — concrete subclasses of in-tree ABCs implement the
  abstract surface with call-compatible signatures.
* ``RL006`` — numpydoc ``Parameters`` sections match the signature.
* ``RL007`` — no bare ``print()`` and no ``time.time()`` in library
  code.
* ``RL008`` — ``multiprocessing`` / ``concurrent.futures`` only inside
  ``repro.parallel``.

The whole-program rules run flow-sensitive contract checks on the call
graph:

* ``RA001`` — pass-count audit: statically count the dataset scans
  reachable from each sampler/estimator/detector entry point and check
  them against the class's declared ``__n_passes__`` contract (and its
  ``Dataset passes:`` docstring line).
* ``RA002`` — parallel-determinism audit: no RNG calls, ambient
  recorder installation or context-variable mutation reachable from
  functions dispatched through ``repro.parallel`` workers.
* ``RA003`` — exception-contract audit: the retry layer's give-up
  signal (``StreamReadError``) must stay outside the ``OSError``
  hierarchy, must never be swallowed, and ``except OSError`` handlers
  must not wrap the retry layer.
* ``RA004`` — counter-schema audit: every observability counter name
  incremented in the analysed tree must be declared in the
  ``COUNTER_SCHEMA`` registry (``src/repro/obs/schema.py``), and every
  declared counter must be incremented somewhere.
* ``RA005`` — space-complexity audit: propagate an abstract size
  lattice (``O(1) < O(b) < O(m) < O(chunk) < O(n) < unbounded``)
  through each audited entry point and check the per-phase bound
  against the class's declared ``__space__`` contract (and its
  ``Memory:`` docstring line).
* ``RA006`` — allocation-pattern audit: no quadratic-growth
  reallocation (concatenate-family calls growing their own operand in
  a loop, per-chunk concatenation in stream loops, re-collection of a
  parallel fan-out whose length is known up front).
* ``RA007`` — merge-safety audit: worker-mutated per-shard state needs
  a called merge-style combiner, and worker counters must round-trip
  through the harness's dynamic re-emission loop.
* ``RA008`` — histogram-schema audit: every observed histogram name
  is registered in ``HISTOGRAM_SCHEMA``, and every registered one is
  observed somewhere.
* ``RA009`` — shared-state race audit: per-function effect summaries
  prove dispatched workers never write coordinator-visible state
  (globals, closures, mutable defaults, shipped objects, read-only
  shared views) outside the RA007 merge channel.
* ``RA010`` — RNG consumption-order prover: every generator draw
  reachable from a ``fit``/``draw``/``plan``/``sample`` entry point
  executes on the coordinator, never under order-nondeterministic
  iteration.
* ``RA011`` — must-release lifecycle audit: every shm/tempfile/file
  handle/memmap acquire is released on all CFG paths (exception edges
  included, via :func:`tools.astkit.build_cfg`) or ownership-transferred
  to a releasing owner.

Every whole-program finding carries a call-graph "why" trace: the
chain of calls from the audited entry point (or dispatch/try site) to
the offending statement. Suppression is per file, for either family:
a comment anywhere in the file of the form
``# repro-audit: disable=<codes>``, with comma-separated rule codes
such as ``RA001,RL004``, disables those rules for that file only.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from tools.astkit import (
    ModuleInfo,
    ProjectModel,
    build_model,
    collect_python_files,
)
from tools.repro_audit.graph import CallGraph

__all__ = [
    "AuditRule",
    "Finding",
    "ModuleRule",
    "RULES",
    "audit_paths",
    "iter_rules",
    "register",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One audit finding at a source location.

    Attributes
    ----------
    path:
        File path, as passed to the runner.
    line:
        1-based line number.
    col:
        0-based column offset.
    rule:
        Rule code, e.g. ``"RA001"`` or ``"RL003"``.
    message:
        Human-readable description of the contract violation.
    anchor:
        Stable symbol the finding is about (class/function qualname or
        counter name) — used for the SARIF fingerprint, which must
        survive unrelated line drift.
    trace:
        Call-graph "why" trace: frames from the audited entry point to
        the offending site, each ``"qualname (path:line)"``.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    anchor: str = ""
    trace: tuple[str, ...] = field(default_factory=tuple)

    def format(self) -> str:
        """Render as ``path:line:col: CODE message`` plus the trace."""
        lines = [f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"]
        for hop in self.trace:
            lines.append(f"    via {hop}")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Line-independent identity used by the SARIF fingerprint."""
        return f"{self.rule}\t{self.path}\t{self.anchor or self.message}"

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "anchor": self.anchor,
            "trace": list(self.trace),
        }


class AuditRule:
    """Base class for audit rules. Subclasses set ``code``/``summary``.

    A rule runs once per analysis over the whole
    :class:`~tools.repro_audit.graph.CallGraph` and yields findings
    anywhere in the project; per-file suppression is applied by the
    runner afterwards.
    """

    code: str = "RA000"
    summary: str = ""

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        """Yield findings over the whole project. Override in subclasses."""
        raise NotImplementedError
        yield  # pragma: no cover

    def finding(
        self,
        info: ModuleInfo,
        node: ast.AST | None,
        message: str,
        *,
        anchor: str = "",
        trace: tuple[str, ...] = (),
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` (or line 1)."""
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            path=info.display_path,
            line=line,
            col=col,
            rule=self.code,
            message=message,
            anchor=anchor,
            trace=trace,
        )


class ModuleRule(AuditRule):
    """Base class for per-file rules: ``check_module`` sees one file.

    The project model is passed along so a rule can resolve sibling
    modules (re-exports, base classes defined elsewhere).
    """

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        """Run :meth:`check_module` over every parsed file."""
        for info in graph.project.modules:
            yield from self.check_module(info, graph.project)

    def check_module(
        self, info: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:
        """Yield findings for one file. Override in subclasses."""
        raise NotImplementedError
        yield  # pragma: no cover


#: Global registry, code -> rule instance, populated by :func:`register`.
RULES: dict[str, AuditRule] = {}


def register(cls: type[AuditRule]) -> type[AuditRule]:
    """Class decorator adding a rule to the global registry."""
    instance = cls()
    if instance.code in RULES:
        raise ValueError(f"duplicate rule code {instance.code}")
    RULES[instance.code] = instance
    return cls


def iter_rules(select: Iterable[str] | None = None) -> list[AuditRule]:
    """Registered rules, optionally restricted to ``select`` codes."""
    _load_rules()
    if select is None:
        return [RULES[c] for c in sorted(RULES)]
    unknown = sorted(set(select) - set(RULES))
    if unknown:
        raise KeyError(f"unknown rule code(s): {', '.join(unknown)}")
    return [RULES[c] for c in sorted(select)]


def _load_rules() -> None:
    """Import the rule modules (registers them as a side effect)."""
    from tools.repro_audit import (  # noqa: F401
        rules_counters,
        rules_defaults,
        rules_docstrings,
        rules_estimator,
        rules_exceptions,
        rules_exports,
        rules_histograms,
        rules_lifecycle,
        rules_merge,
        rules_observability,
        rules_parallel,
        rules_parallel_imports,
        rules_passes,
        rules_races,
        rules_randomness,
        rules_rng,
        rules_space,
    )


def audit_paths(
    paths: Iterable[str | Path],
    *,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the registered audit rules over ``paths``.

    Parameters
    ----------
    paths:
        Files and/or directories to audit (directories are walked for
        ``*.py``). The call graph spans everything given, so
        cross-module reachability works across the whole argument set.
    select:
        Restrict the run to these rule codes (default: all).
    """
    rules = iter_rules(select)
    project, issues = build_model(collect_python_files(paths))
    findings = [
        Finding(
            path=issue.path,
            line=issue.line,
            col=issue.col,
            rule="RA000",
            message=issue.message,
        )
        for issue in issues
    ]
    graph = CallGraph(project)
    suppressed_by_path = {
        info.display_path: info.suppressed for info in project.modules
    }
    for rule in rules:
        for finding in rule.check(graph):
            if rule.code in suppressed_by_path.get(finding.path, frozenset()):
                continue
            findings.append(finding)
    return sorted(findings)
