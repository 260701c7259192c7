"""Benchmark regression gate for CI.

Compares a fresh pytest-benchmark JSON run of
``benchmarks/bench_micro_primitives.py`` against the committed baseline
``benchmarks/BENCH_micro.json``. Wall time is machine-dependent, so the
comparison is *calibration-normalised*: both the baseline (at
``--write-baseline`` time) and the gate (at check time) time the same
fixed numpy workload, and each benchmark's budget is scaled by the
ratio of the two calibrations before comparing medians (robust to a
stray slow round in a way the mean is not). A benchmark fails the
gate when its normalised median exceeds ``BUDGET`` (2x) of the
baseline — generous enough to absorb scheduler noise, tight enough to
catch an accidental quadratic (the patterns the static RA006 rule in
``tools/repro_audit/rules_alloc.py`` flags are 10x+ at these sizes).

Bootstrap mode mirrors ``tools/coverage_gate.py``: until the baseline
file carries a ``calibration_seconds`` key (injected by
``--write-baseline``), the gate prints what it measured and passes, so
CI wiring is a no-flag-day change.

Usage::

    python tools/bench_gate.py current.json
    python tools/bench_gate.py current.json --baseline benchmarks/BENCH_micro.json
    python tools/bench_gate.py benchmarks/BENCH_micro.json --write-baseline
"""

# CLI entry point: stdout IS the user interface here, and the
# calibration workload is deliberately pinned to a fixed seed — it is
# a timing probe, not a statistical draw.
# repro-audit: disable=RL007,RL002

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["calibrate", "load_medians", "main"]

#: Allowed slowdown factor per benchmark after calibration scaling.
BUDGET = 2.0

#: Benchmarks faster than this are dominated by fixed overhead and are
#: compared only against the absolute floor, not the ratio budget.
MIN_COMPARABLE_SECONDS = 0.005

_DEFAULT_BASELINE = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_micro.json"
)


def calibrate(rounds: int = 5) -> float:
    """Seconds for a fixed numpy workload; best of ``rounds``.

    The workload mixes the primitives the microbenchmarks lean on —
    dense matmul, elementwise transcendentals and a sort — so its
    timing tracks the machine's effective speed for this suite better
    than a single-kernel probe would.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(320, 320))
    v = rng.normal(size=250_000)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        b = a @ a
        np.exp(0.001 * b)
        np.sort(v)
        best = min(best, time.perf_counter() - start)
    return best


def load_medians(path: Path) -> dict[str, float]:
    """``{benchmark name: median seconds}`` from a pytest-benchmark JSON."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        bench["name"]: float(bench["stats"]["median"])
        for bench in payload.get("benchmarks", [])
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current_json", type=Path)
    parser.add_argument(
        "--baseline", type=Path, default=_DEFAULT_BASELINE,
        help="baseline file (default: benchmarks/BENCH_micro.json)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="inject this machine's calibration into current_json, "
        "arming it as the committed baseline",
    )
    args = parser.parse_args(argv)

    if args.write_baseline:
        payload = json.loads(args.current_json.read_text(encoding="utf-8"))
        payload["calibration_seconds"] = calibrate()
        args.current_json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(
            f"bench gate: wrote calibration "
            f"{payload['calibration_seconds']:.4f}s into {args.current_json}."
        )
        return 0

    if not args.baseline.exists():
        print(
            f"bench gate: bootstrap mode — no baseline at {args.baseline}; "
            "run with --write-baseline to arm the gate."
        )
        return 0
    baseline_payload = json.loads(args.baseline.read_text(encoding="utf-8"))
    base_cal = baseline_payload.get("calibration_seconds")
    if base_cal is None:
        print(
            f"bench gate: bootstrap mode — {args.baseline} has no "
            "calibration_seconds key; re-arm it with --write-baseline."
        )
        return 0

    now_cal = calibrate()
    # >1 means this machine is slower than the recording machine, so
    # budgets stretch proportionally.
    speed = now_cal / float(base_cal)
    baseline_medians = load_medians(args.baseline)
    current_medians = load_medians(args.current_json)

    failures: list[str] = []
    for name, base_median in sorted(baseline_medians.items()):
        current = current_medians.get(name)
        if current is None:
            print(f"bench gate: FAIL {name}: missing from the current run")
            failures.append(f"{name}: missing from the current run")
            continue
        budget = max(
            base_median * speed * BUDGET, MIN_COMPARABLE_SECONDS
        )
        verdict = "FAIL" if current > budget else "ok"
        print(
            f"bench gate: {verdict} {name}: {current:.4f}s vs budget "
            f"{budget:.4f}s (baseline {base_median:.4f}s x speed "
            f"{speed:.2f} x {BUDGET})"
        )
        if current > budget:
            failures.append(
                f"{name}: {current:.4f}s exceeds budget {budget:.4f}s"
            )
    if failures:
        print(f"bench gate: FAIL — {len(failures)} regression(s).")
        return 1
    print(
        f"bench gate: OK — {len(baseline_medians)} benchmark(s) within "
        f"the {BUDGET}x calibrated budget."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
