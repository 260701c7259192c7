"""Smoke test of the end-to-end benchmark at a small scale.

Runs every workload at ``--scale 0.02`` with one timed run each, checks
that the printed metric names and units are exactly those of
``BENCHMARK.json``, and that the written run round-trips through
``compare``. Run it with ``python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parents[2]
METRIC_LINE = re.compile(r"^  metric (\S+) = \S+ (\S+)")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


def test_every_workload_prints_the_declared_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "run.json"
    proc = _run("--scale", "0.02", "--seconds", "0", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr

    declared = {(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]}
    printed: dict[str, set] = {}
    workload = None
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            workload = line[3:].split(":")[0]
            printed[workload] = set()
        elif match := METRIC_LINE.match(line):
            printed[workload].add(match.groups())
    assert set(printed) == {w["name"] for w in spec["workloads"]}
    for metrics in printed.values():
        assert metrics == declared

    (run,) = json.loads(out.read_text())["runs"]
    assert all(record["correct"] for record in run["workloads"].values())
    assert Path(f"{out}.trace.json").exists()

    compared = _run("compare", str(out), str(out))
    assert compared.returncode == 0, compared.stdout + compared.stderr
    verdicts = [line.split()[-1] for line in compared.stdout.splitlines()[1:]]
    assert verdicts and set(verdicts) == {"unchanged"}


def test_single_workload_ends_with_the_result_line():
    proc = _run(
        "--workload", "outliers-kde", "--scale", "0.02", "--seconds", "0",
        "--seed", "2", "--trace", "1",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
