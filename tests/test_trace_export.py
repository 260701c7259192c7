"""Tests for the trace exporter, the manifest diff, and `repro trace`.

The exporter is a contract with external consumers — Perfetto /
chrome://tracing read the Chrome trace-event JSON — so these tests
validate the *format* against the embedded JSON schema, not just our
own reading of it.
"""

import json

import pytest

from repro.obs import (
    CHROME_TRACE_SCHEMA,
    Recorder,
    RunManifest,
    diff_manifests,
    span_coverage,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.cli import main as cli_main


def recorded_manifest(name="demo", with_workers=False):
    """A small real manifest: nested phases, counters, histograms."""
    rec = Recorder()
    with rec.phase(f"run:{name}"):
        with rec.phase("fit_density") as span:
            span.set(rows=100)
            rec.count("data_passes", 1)
            rec.count("points_seen", 100)
            rec.observe("kde_eval_chunk_seconds", 0.02)
        with rec.phase("eval_density"):
            rec.count("kernel_evals", 5000)
            if with_workers:
                rec.adopt_spans([
                    {"name": "worker_task", "start_s": 0.0,
                     "elapsed_s": 0.01, "attrs": {"worker": 0, "chunk": 0},
                     "children": []},
                    {"name": "worker_task", "start_s": 0.0,
                     "elapsed_s": 0.01, "attrs": {"worker": 1, "chunk": 1},
                     "children": []},
                ])
    return RunManifest.from_recorder(rec, name=name, seed=0)


def synthetic_manifest(name, timers, counters=None):
    """Manifest with hand-picked timers (for deterministic diff tests)."""
    spans = [
        {"name": phase, "start_s": 0.0, "elapsed_s": seconds,
         "counters": {}, "attrs": {}, "children": []}
        for phase, seconds in timers.items()
    ]
    return RunManifest(
        name=name, counters=dict(counters or {}), timers=dict(timers),
        spans=spans,
    )


class TestChromeTrace:
    def test_validates_against_embedded_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        trace = to_chrome_trace(recorded_manifest())
        jsonschema.validate(trace, CHROME_TRACE_SCHEMA)

    def test_internal_validator_agrees(self):
        trace = to_chrome_trace(recorded_manifest(with_workers=True))
        assert validate_chrome_trace(trace) == []

    def test_b_e_events_pair_and_order(self):
        trace = to_chrome_trace(recorded_manifest())
        slices = [e for e in trace["traceEvents"] if e["ph"] in "BE"]
        assert len(slices) % 2 == 0
        stack = []
        for event in slices:
            assert event["ts"] >= (slices[0]["ts"])
            if event["ph"] == "B":
                stack.append(event)
            else:
                opener = stack.pop()
                assert opener["name"] == event["name"]
                assert event["ts"] >= opener["ts"]
        assert stack == []

    def test_worker_spans_land_on_worker_tracks(self):
        trace = to_chrome_trace(recorded_manifest(with_workers=True))
        tids = {e["tid"] for e in trace["traceEvents"]
                if e["ph"] == "B" and e["name"] == "worker_task"}
        assert tids == {1, 2}  # worker w -> track w + 1; main is 0
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert 0 in thread_names
        assert {1, 2} <= set(thread_names)

    def test_validator_reports_unpaired_events(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
        ], "displayTimeUnit": "ms"}
        problems = validate_chrome_trace(trace)
        assert problems and any("never closed" in p for p in problems)


class TestDiff:
    def test_identical_manifests_unchanged(self):
        a = synthetic_manifest("x", {"fit": 0.1}, {"data_passes": 2})
        result = diff_manifests(a, a)
        assert result.verdict == "unchanged"
        assert result.exit_code == 0

    def test_counter_difference_regresses(self):
        a = synthetic_manifest("x", {}, {"data_passes": 2})
        b = synthetic_manifest("x", {}, {"data_passes": 3})
        result = diff_manifests(a, b)
        assert result.verdict == "regressed"
        assert result.exit_code == 1
        assert "data_passes" in result.format()

    def test_slowdown_beyond_budget_regresses(self):
        a = synthetic_manifest("x", {"fit": 0.1})
        b = synthetic_manifest("x", {"fit": 0.5})
        assert diff_manifests(a, b).verdict == "regressed"
        # ...but a generous budget absorbs it.
        assert diff_manifests(a, b, budget=10.0).verdict == "unchanged"

    def test_speedup_beyond_budget_improves(self):
        a = synthetic_manifest("x", {"fit": 0.5})
        b = synthetic_manifest("x", {"fit": 0.1})
        assert diff_manifests(a, b).verdict == "improved"

    def test_sub_5ms_phases_never_flagged(self):
        a = synthetic_manifest("x", {"tiny": 0.0001})
        b = synthetic_manifest("x", {"tiny": 0.004})
        assert diff_manifests(a, b).verdict == "unchanged"

    def test_counters_only_ignores_timers(self):
        a = synthetic_manifest("x", {"fit": 0.1}, {"data_passes": 2})
        b = synthetic_manifest("x", {"fit": 9.9}, {"data_passes": 2})
        assert diff_manifests(a, b, counters_only=True).verdict == (
            "unchanged"
        )

    def test_invalid_budget_rejected(self):
        a = synthetic_manifest("x", {})
        with pytest.raises(ValueError):
            diff_manifests(a, a, budget=1.0)

    def test_ignore_patterns_exclude_counters(self):
        # The sharded-vs-serial CI leg: shard bookkeeping counters exist
        # on one side only, by construction.
        a = synthetic_manifest("x", {}, {"data_passes": 2})
        b = synthetic_manifest(
            "x", {}, {"data_passes": 2, "shards_fitted": 3, "shard_rows": 90}
        )
        assert diff_manifests(a, b).verdict == "regressed"
        result = diff_manifests(a, b, ignore=("shard*",))
        assert result.verdict == "unchanged"
        assert result.exit_code == 0

    def test_ignore_does_not_mask_real_differences(self):
        a = synthetic_manifest("x", {}, {"data_passes": 2})
        b = synthetic_manifest("x", {}, {"data_passes": 3, "shard_rows": 9})
        assert diff_manifests(a, b, ignore=("shard*",)).verdict == "regressed"


class TestSpanCoverage:
    def test_children_explain_parent(self):
        manifest = RunManifest(name="x", spans=[{
            "name": "run", "start_s": 0.0, "elapsed_s": 0.1,
            "counters": {}, "attrs": {}, "children": [
                {"name": "a", "start_s": 0.0, "elapsed_s": 0.06,
                 "counters": {}, "attrs": {}, "children": []},
                {"name": "b", "start_s": 0.06, "elapsed_s": 0.03,
                 "counters": {}, "attrs": {}, "children": []},
            ],
        }])
        coverage = span_coverage(manifest)
        assert coverage["run"] == pytest.approx(0.9)

    def test_leaves_and_fast_spans_skipped(self):
        manifest = RunManifest(name="x", spans=[{
            "name": "leaf", "start_s": 0.0, "elapsed_s": 1.0,
            "counters": {}, "attrs": {}, "children": [],
        }])
        assert span_coverage(manifest) == {}


class TestTraceCli:
    @pytest.fixture
    def manifest_path(self, tmp_path):
        path = tmp_path / "m.jsonl"
        recorded_manifest().emit(path)
        return str(path)

    def test_export_chrome_validates(self, manifest_path, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = cli_main(["trace", "export", manifest_path, "--validate",
                       "--output", str(out)])
        assert rc == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []

    def test_diff_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        same = tmp_path / "same.jsonl"
        worse = tmp_path / "worse.jsonl"
        synthetic_manifest("x", {"fit": 0.1}, {"data_passes": 2}).emit(base)
        synthetic_manifest("x", {"fit": 0.1}, {"data_passes": 2}).emit(same)
        synthetic_manifest("x", {"fit": 0.1}, {"data_passes": 3}).emit(worse)
        assert cli_main(["trace", "diff", str(base), str(same)]) == 0
        assert cli_main(["trace", "diff", str(base), str(worse)]) == 1

    def test_diff_bad_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        with pytest.raises(SystemExit) as err:
            cli_main(["trace", "diff", missing, missing])
        assert err.value.code == 2

    def test_coverage_min_gate(self, manifest_path, capsys):
        assert cli_main(["trace", "coverage", manifest_path]) == 0
        capsys.readouterr()
        rc = cli_main(["trace", "coverage", manifest_path,
                       "--min", "1.1"])
        out = capsys.readouterr().out
        # Either nothing ran long enough to gate, or the impossible
        # threshold flags it.
        assert (rc == 0 and "no phase" in out) or (
            rc == 1 and "BELOW MIN" in out
        )
