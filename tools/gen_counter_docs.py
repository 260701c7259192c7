"""Regenerate the README metric tables from ``repro.obs`` registries.

The registries in ``src/repro/obs/schema.py`` are the single source of
truth for the observability vocabulary — ``COUNTER_SCHEMA`` and
``HISTOGRAM_SCHEMA``, which a live ``Recorder`` enforces at run time
(an unregistered name raises ``ParameterError``). This script
rewrites the markdown tables between the
``<!-- counter-table:begin -->`` / ``<!-- counter-table:end -->`` and
``<!-- histogram-table:begin -->`` / ``<!-- histogram-table:end -->``
markers in README.md so docs can never drift from the code:

    python tools/gen_counter_docs.py           # rewrite in place
    python tools/gen_counter_docs.py --check   # CI: exit 1 on drift
"""

# CLI entry point: stdout IS the user interface here.
# repro-audit: disable=RL007

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

__all__ = ["main", "render_histogram_table", "render_table"]

REPO_ROOT = Path(__file__).resolve().parent.parent
BEGIN = "<!-- counter-table:begin -->"
END = "<!-- counter-table:end -->"
HIST_BEGIN = "<!-- histogram-table:begin -->"
HIST_END = "<!-- histogram-table:end -->"


def _region(begin: str, end: str) -> re.Pattern[str]:
    return re.compile(
        re.escape(begin) + r".*?" + re.escape(end), flags=re.DOTALL
    )


_REGION = _region(BEGIN, END)
_HIST_REGION = _region(HIST_BEGIN, HIST_END)


def _import_schema():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro import obs

    return obs


def render_table() -> str:
    obs = _import_schema()
    lines = [
        BEGIN,
        "| Counter | Incremented by | Meaning |",
        "| --- | --- | --- |",
    ]
    for spec in obs.COUNTER_SCHEMA.values():
        lines.append(
            f"| `{spec.name}` | {spec.incremented_by} | {spec.meaning} |"
        )
    lines.append(END)
    return "\n".join(lines)


def render_histogram_table() -> str:
    obs = _import_schema()
    lines = [
        HIST_BEGIN,
        "| Histogram | Unit | Observed by | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for spec in obs.HISTOGRAM_SCHEMA.values():
        lines.append(
            f"| `{spec.name}` | {spec.unit} | {spec.observed_by} "
            f"| {spec.meaning} |"
        )
    lines.append(HIST_END)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the README tables match the registries; do not write",
    )
    parser.add_argument(
        "--readme",
        type=Path,
        default=REPO_ROOT / "README.md",
        help="markdown file holding the marker-delimited tables",
    )
    args = parser.parse_args(argv)

    source = args.readme.read_text(encoding="utf-8")
    regions = (
        (BEGIN, END, _REGION, render_table),
        (HIST_BEGIN, HIST_END, _HIST_REGION, render_histogram_table),
    )
    updated = source
    for begin, end, region, render in regions:
        if begin not in source or end not in source:
            print(
                f"gen_counter_docs: {args.readme} has no {begin} / {end} "
                "markers",
                file=sys.stderr,
            )
            return 2
        updated = region.sub(lambda _m: render(), updated, count=1)

    if updated == source:
        print(f"gen_counter_docs: {args.readme} is up to date")
        return 0
    if args.check:
        print(
            f"gen_counter_docs: {args.readme} metric tables are stale; "
            "run `python tools/gen_counter_docs.py`",
            file=sys.stderr,
        )
        return 1
    args.readme.write_text(updated, encoding="utf-8")
    print(f"gen_counter_docs: rewrote metric tables in {args.readme}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
