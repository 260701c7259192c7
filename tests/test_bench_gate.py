"""Tests for the calibrated benchmark regression gate (tools/bench_gate)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_gate import calibrate, load_medians, main  # noqa: E402

#: Calibration seconds pinned for the budget tests: baseline and
#: current runs then share one machine speed (factor exactly 1), so the
#: verdicts do not depend on two independent timings.
FIXED_CALIBRATION = 0.25


def _bench_json(path: Path, medians: dict[str, float], **extra) -> Path:
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"median": median}}
            for name, median in medians.items()
        ],
        **extra,
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def fixed_calibration(monkeypatch):
    monkeypatch.setattr(
        "tools.bench_gate.calibrate", lambda rounds=5: FIXED_CALIBRATION
    )
    return FIXED_CALIBRATION


class TestBenchGate:
    def test_load_medians(self, tmp_path):
        path = _bench_json(tmp_path / "b.json", {"test_a": 0.5, "test_b": 1.0})
        assert load_medians(path) == {"test_a": 0.5, "test_b": 1.0}

    def test_calibration_is_positive_and_repeatable_order(self):
        first, second = calibrate(rounds=2), calibrate(rounds=2)
        assert first > 0 and second > 0
        # Same workload on the same machine: within an order of
        # magnitude (this is a sanity check, not a timing assertion).
        assert 0.1 < first / second < 10

    def test_bootstrap_when_baseline_missing(self, tmp_path, capsys):
        current = _bench_json(tmp_path / "cur.json", {"test_a": 0.5})
        assert (
            main([str(current), "--baseline", str(tmp_path / "nope.json")])
            == 0
        )
        assert "bootstrap" in capsys.readouterr().out

    def test_bootstrap_when_baseline_uncalibrated(self, tmp_path, capsys):
        current = _bench_json(tmp_path / "cur.json", {"test_a": 0.5})
        baseline = _bench_json(tmp_path / "base.json", {"test_a": 0.5})
        assert main([str(current), "--baseline", str(baseline)]) == 0
        assert "bootstrap" in capsys.readouterr().out

    def test_write_baseline_injects_calibration(self, tmp_path, capsys):
        baseline = _bench_json(tmp_path / "base.json", {"test_a": 0.5})
        assert main([str(baseline), "--write-baseline"]) == 0
        payload = json.loads(baseline.read_text())
        assert payload["calibration_seconds"] > 0

    def test_within_budget_passes(self, tmp_path, capsys, fixed_calibration):
        baseline = _bench_json(
            tmp_path / "base.json",
            {"test_a": 0.5},
            calibration_seconds=fixed_calibration,
        )
        current = _bench_json(tmp_path / "cur.json", {"test_a": 0.6})
        assert main([str(current), "--baseline", str(baseline)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "current, verdict",
        [(1.0, 0), (float(np.nextafter(1.0, 2.0)), 1)],
        ids=["at-budget-passes", "one-ulp-over-fails"],
    )
    def test_budget_edge(self, tmp_path, capsys, fixed_calibration, current, verdict):
        # Budget = 0.5 s baseline x speed 1 x BUDGET 2 = 1.0 s exactly.
        baseline = _bench_json(
            tmp_path / "base.json",
            {"test_a": 0.5},
            calibration_seconds=fixed_calibration,
        )
        cur = _bench_json(tmp_path / "cur.json", {"test_a": current})
        assert main([str(cur), "--baseline", str(baseline)]) == verdict

    def test_regression_fails(self, tmp_path, capsys, fixed_calibration):
        baseline = _bench_json(
            tmp_path / "base.json",
            {"test_a": 0.5},
            calibration_seconds=fixed_calibration,
        )
        # 100x the baseline blows any calibration head-room.
        current = _bench_json(tmp_path / "cur.json", {"test_a": 50.0})
        assert main([str(current), "--baseline", str(baseline)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_benchmark_fails(self, tmp_path, capsys, fixed_calibration):
        baseline = _bench_json(
            tmp_path / "base.json",
            {"test_a": 0.5},
            calibration_seconds=fixed_calibration,
        )
        current = _bench_json(tmp_path / "cur.json", {})
        assert main([str(current), "--baseline", str(baseline)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_committed_baseline_is_armed(self):
        payload = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_micro.json").read_text()
        )
        assert payload["calibration_seconds"] > 0
        assert load_medians(REPO_ROOT / "benchmarks" / "BENCH_micro.json")
