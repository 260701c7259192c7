"""Renderers for repro-audit findings: text, JSON, SARIF 2.1.0.

The text form is for humans and CI logs (one location line per finding
plus the indented call-graph "why" trace, then a per-rule summary);
JSON is for scripting; SARIF feeds GitHub code scanning, with every
rule under one driver and each finding's trace encoded as a
``codeFlow`` so the UI can walk the call chain from the audited entry
point to the offending statement.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import Iterable, Sequence

from tools.repro_audit.core import AuditRule, Finding

__all__ = ["render_json", "render_sarif", "render_text", "rule_listing"]

SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

#: Trace frames look like ``qualname (path:line)``.
_FRAME_RE = re.compile(r"^(?P<label>.*)\((?P<path>[^()]+):(?P<line>\d+)\)\s*$")


def _rule_counts(findings: Sequence[Finding]) -> dict[str, int]:
    return dict(sorted(Counter(f.rule for f in findings).items()))


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one block per finding."""
    if not findings:
        return "repro-audit: clean (0 findings)"
    lines = [finding.format() for finding in findings]
    summary = ", ".join(
        f"{code} x{n}" for code, n in _rule_counts(findings).items()
    )
    lines.append(f"repro-audit: {len(findings)} finding(s) [{summary}]")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report with per-rule counts."""
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in findings],
            "count": len(findings),
            "counts": _rule_counts(findings),
        },
        indent=2,
        sort_keys=True,
    )


def _location(path: str, line: int, col: int = 0) -> dict:
    region: dict = {"startLine": max(1, line)}
    if col:
        region["startColumn"] = col + 1
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": region,
        }
    }


def _code_flow(finding: Finding) -> dict:
    """The finding's "why" trace as a SARIF codeFlow."""
    locations = []
    for frame in finding.trace:
        match = _FRAME_RE.match(frame)
        if match:
            loc = _location(
                match.group("path").strip(), int(match.group("line"))
            )
        else:
            loc = _location(finding.path, finding.line, finding.col)
        locations.append(
            {"location": {**loc, "message": {"text": frame}}}
        )
    locations.append(
        {
            "location": {
                **_location(finding.path, finding.line, finding.col),
                "message": {"text": finding.message},
            }
        }
    )
    return {"threadFlows": [{"locations": locations}]}


def render_sarif(
    findings: Sequence[Finding], rules: Iterable[AuditRule]
) -> str:
    """SARIF 2.1.0 log for GitHub code-scanning upload."""
    rule_objects = [
        {
            "id": rule.code,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.summary},
        }
        for rule in rules
    ]
    results = []
    for finding in findings:
        result = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                _location(finding.path, finding.line, finding.col)
            ],
            "partialFingerprints": {
                "reproAudit/v1": finding.fingerprint()
            },
        }
        if finding.trace:
            result["codeFlows"] = [_code_flow(finding)]
        results.append(result)
    log = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-audit",
                        "informationUri": (
                            "https://github.com/paper-repro/repro"
                        ),
                        "rules": rule_objects,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)


def rule_listing(rules: Iterable[AuditRule]) -> str:
    """``--list-rules`` output."""
    return "\n".join(f"{rule.code}  {rule.summary}" for rule in rules)
