"""Coverage regression gate for CI.

Reads a ``coverage.xml`` (Cobertura format, as produced by
``pytest --cov=repro --cov-report=xml``) and compares the measured line
coverage against the committed baseline in
``tools/coverage_baseline.txt``.

The gate fails when coverage drops more than ``MAX_REGRESSION``
percentage points below the baseline. It never fails for *improving*
coverage; when the measured value beats the baseline by more than the
regression budget, it prints a reminder to ratchet the baseline up.

Bootstrap mode: until a numeric baseline is committed the baseline file
holds the sentinel ``bootstrap``. The gate then prints the measured
percentage (the number to commit) and passes, so wiring the gate into
CI is a two-step, no-flag-day change.

Usage::

    python tools/coverage_gate.py coverage.xml
    python tools/coverage_gate.py coverage.xml --baseline tools/coverage_baseline.txt
"""

# CLI entry point: stdout IS the user interface here.
# repro-audit: disable=RL007

from __future__ import annotations

import argparse
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

__all__ = ["main", "measure_coverage", "read_baseline"]

#: Allowed drop below the baseline, in percentage points.
MAX_REGRESSION = 1.0

_DEFAULT_BASELINE = Path(__file__).resolve().parent / "coverage_baseline.txt"


def measure_coverage(xml_path: Path) -> float:
    """Line coverage percentage from a Cobertura ``coverage.xml``."""
    root = ET.parse(xml_path).getroot()
    rate = root.get("line-rate")
    if rate is None:
        raise SystemExit(
            f"error: {xml_path} has no line-rate attribute; is it a "
            "Cobertura coverage report?"
        )
    return 100.0 * float(rate)


def read_baseline(path: Path) -> float | None:
    """The committed baseline percentage, or None in bootstrap mode."""
    text = path.read_text(encoding="utf-8").strip()
    if text.lower() == "bootstrap":
        return None
    try:
        return float(text)
    except ValueError:
        raise SystemExit(
            f"error: {path} must hold a number or the word 'bootstrap'; "
            f"got {text!r}."
        ) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("coverage_xml", type=Path)
    parser.add_argument(
        "--baseline", type=Path, default=_DEFAULT_BASELINE,
        help="baseline file (default: tools/coverage_baseline.txt)",
    )
    args = parser.parse_args(argv)

    measured = measure_coverage(args.coverage_xml)
    baseline = read_baseline(args.baseline)
    if baseline is None:
        print(
            f"coverage gate: bootstrap mode — measured {measured:.2f}%. "
            f"Commit this number to {args.baseline} to arm the gate."
        )
        return 0
    floor = baseline - MAX_REGRESSION
    if measured < floor:
        print(
            f"coverage gate: FAIL — measured {measured:.2f}% is below the "
            f"floor {floor:.2f}% (baseline {baseline:.2f}% - "
            f"{MAX_REGRESSION} pt budget)."
        )
        return 1
    print(
        f"coverage gate: OK — measured {measured:.2f}% vs baseline "
        f"{baseline:.2f}% (floor {floor:.2f}%)."
    )
    if measured > baseline + MAX_REGRESSION:
        print(
            f"coverage gate: consider ratcheting the baseline up to "
            f"{measured:.2f}% in {args.baseline}."
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
