"""Command-line entry point: ``python -m tools.repro_audit [paths]``.

Exit codes (stable, scripted against by CI):

* ``0`` — no findings, or ``--list-rules`` completed;
* ``1`` — at least one finding;
* ``2`` — usage error (unknown rule code, missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.repro_audit.core import audit_paths, iter_rules
from tools.repro_audit.reporting import (
    render_json,
    render_sarif,
    render_text,
    rule_listing,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_audit",
        description=(
            "Static audit of the repo's contracts: per-file determinism, "
            "observability and estimator-API discipline (RL001-RL008) and "
            "whole-program pass-count, space, parallel-determinism, "
            "exception, counter-schema and lifecycle rules (RA001-RA011)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to audit (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        type=Path,
        default=None,
        help="write the report to FILE instead of stdout",
    )
    args = parser.parse_args(argv)

    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]

    try:
        rules = iter_rules(select)
    except KeyError as exc:
        print(f"repro-audit: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.list_rules:
        print(rule_listing(rules))
        return 0

    missing = [raw for raw in args.paths if not Path(raw).exists()]
    if missing:
        # A typo'd path must not look like a clean run.
        print(
            "repro-audit: no such file or directory: " + ", ".join(missing),
            file=sys.stderr,
        )
        return 2

    findings = audit_paths(args.paths, select=select)

    if args.format == "json":
        report = render_json(findings)
    elif args.format == "sarif":
        report = render_sarif(findings, rules)
    else:
        report = render_text(findings)
    if args.output is not None:
        args.output.write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
