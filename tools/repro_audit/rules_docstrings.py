"""RL006 — numpydoc ``Parameters`` sections must match signatures.

Most of this library's reproducibility knobs (``exponent``,
``density_floor_fraction``, ``random_state``, ...) reach users through
docstrings. A ``Parameters`` section that documents a renamed or removed
parameter, or silently omits a new one, is how "I passed the tuning knob
from the paper and nothing changed" bugs are born. When a public
callable carries a numpydoc ``Parameters`` section, this rule checks it
against the real signature: every documented name must exist, every
signature parameter must be documented, and the order must agree.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.astkit import ModuleInfo, ProjectModel
from tools.repro_audit.core import Finding, ModuleRule, register
from tools.repro_audit.rules_randomness import iter_public_callables

__all__ = ["DocstringSignatureMatch", "documented_parameters"]

_ENTRY_RE = re.compile(
    r"^(?P<names>\*{0,2}[A-Za-z_]\w*(?:\s*,\s*\*{0,2}[A-Za-z_]\w*)*)\s*(?::.*)?$"
)
_DASHES_RE = re.compile(r"^-{3,}\s*$")


def documented_parameters(docstring: str) -> list[str] | None:
    """Parameter names listed in a numpydoc ``Parameters`` section.

    Returns None when the docstring has no such section; star prefixes
    (``*args`` / ``**kwargs``) are preserved.
    """
    lines = docstring.expandtabs().splitlines()
    if not lines:
        return None
    # Normalise indentation the way inspect.cleandoc does.
    body = lines[1:]
    margin = min(
        (len(ln) - len(ln.lstrip()) for ln in body if ln.strip()), default=0
    )
    lines = [lines[0].strip()] + [ln[margin:] for ln in body]

    start = None
    for i in range(len(lines) - 1):
        if lines[i].strip() == "Parameters" and _DASHES_RE.match(
            lines[i + 1].strip()
        ):
            start = i + 2
            break
    if start is None:
        return None

    base_indent = len(lines[start - 2]) - len(lines[start - 2].lstrip())
    names: list[str] = []
    i = start
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        indent = len(line) - len(line.lstrip())
        if indent < base_indent:
            break
        if indent == base_indent:
            # A new section header ("Returns" + dashes) ends the scan.
            if i + 1 < len(lines) and _DASHES_RE.match(lines[i + 1].strip()):
                break
            match = _ENTRY_RE.match(line.strip())
            if match is None:
                break
            names.extend(
                n.strip() for n in match.group("names").split(",")
            )
        i += 1
    return names


def _signature_parameters(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[list[str], set[str]]:
    """(ordered required-documentation names, all acceptable names)."""
    args = func.args
    ordered = [
        a.arg
        for a in args.posonlyargs + args.args + args.kwonlyargs
        if a.arg not in ("self", "cls")
    ]
    acceptable = set(ordered)
    if args.vararg is not None:
        acceptable.add(args.vararg.arg)
    if args.kwarg is not None:
        acceptable.add(args.kwarg.arg)
    return ordered, acceptable


@register
class DocstringSignatureMatch(ModuleRule):
    """RL006: when a ``Parameters`` section exists, it must be exact.

    For public callables (and public classes, whose docstring documents
    ``__init__``) that carry a numpydoc ``Parameters`` section:

    * every documented name must be a parameter of the signature;
    * every signature parameter must appear in the section
      (``*args``/``**kwargs`` are optional to document);
    * documented names must follow signature order.

    Callables without a ``Parameters`` section are not flagged — the
    rule enforces accuracy, not coverage.
    """

    code = "RL006"
    summary = "numpydoc Parameters sections must match the signature"

    def check_module(
        self, info: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:
        if not info.is_library:
            return

        targets: list[tuple[ast.AST, ast.FunctionDef | ast.AsyncFunctionDef, str]] = []
        for func, display in iter_public_callables(info.tree):
            doc = ast.get_docstring(func, clean=False)
            if doc:
                targets.append((func, func, display))
        for node in info.tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                doc = ast.get_docstring(node, clean=False)
                init = next(
                    (
                        m
                        for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and m.name == "__init__"
                    ),
                    None,
                )
                if doc and init is not None:
                    targets.append((node, init, node.name))

        for anchor, func, display in targets:
            doc = ast.get_docstring(anchor, clean=False)  # type: ignore[arg-type]
            documented = documented_parameters(doc or "")
            if documented is None:
                continue
            ordered, acceptable = _signature_parameters(func)
            yield from self._compare(
                info, anchor, display, documented, ordered, acceptable
            )

    def _compare(
        self,
        info: ModuleInfo,
        anchor: ast.AST,
        display: str,
        documented: list[str],
        ordered: list[str],
        acceptable: set[str],
    ) -> Iterator[Finding]:
        stripped = [n.lstrip("*") for n in documented]
        for name in stripped:
            if name not in acceptable:
                yield self.finding(
                    info,
                    anchor,
                    f"'{display}' documents parameter '{name}' which is not "
                    f"in the signature",
                )
        documented_set = set(stripped)
        for name in ordered:
            if name not in documented_set:
                yield self.finding(
                    info,
                    anchor,
                    f"'{display}' has a Parameters section but omits "
                    f"parameter '{name}'",
                )
        in_sig_order = [n for n in stripped if n in set(ordered)]
        expected = [n for n in ordered if n in documented_set]
        if in_sig_order != expected:
            yield self.finding(
                info,
                anchor,
                f"'{display}' documents parameters out of signature order "
                f"(documented {in_sig_order}, signature {expected})",
            )
