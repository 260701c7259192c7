"""Tests for repro.obs: recorders, spans, manifests and instrumentation."""

import json
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ApproximateClusteringPipeline
from repro.config import use_config
from repro.core import DensityBiasedSampler, OnePassBiasedSampler
from repro.datasets import make_fig5_dataset, make_outlier_dataset
from repro.density import KernelDensityEstimator, TreeDensityEstimator
from repro.exceptions import ParameterError
from repro.obs import (
    COUNTER_SCHEMA,
    HISTOGRAM_SCHEMA,
    NULL_RECORDER,
    SCHEMA_VERSION,
    Histogram,
    Recorder,
    RunManifest,
    Span,
    Stopwatch,
    collect_environment,
    format_spans,
    get_recorder,
    recording,
    use_recorder,
)
from repro.outliers import ApproximateOutlierDetector
from repro.utils.streams import DataStream


@pytest.fixture
def blobs():
    rng = np.random.default_rng(0)
    return np.vstack(
        [rng.normal(c, 0.05, (1500, 2)) for c in ((0, 0), (1, 1))]
    )


# ---------------------------------------------------------------------------
# Recorder and spans
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("kernel_evals", 10)
        rec.count("kernel_evals", 5)
        rec.count("data_passes")
        assert rec.counters == {"kernel_evals": 15, "data_passes": 1}

    def test_phase_records_counter_deltas(self):
        rec = Recorder()
        rec.count("kernel_evals", 100)
        with rec.phase("fit"):
            rec.count("kernel_evals", 7)
            rec.count("data_passes")
        assert rec.spans[0].counters == {"kernel_evals": 7, "data_passes": 1}
        # Totals are unaffected by span bookkeeping.
        assert rec.counters["kernel_evals"] == 107

    def test_nested_phases_build_tree(self):
        rec = Recorder()
        with rec.phase("outer"):
            with rec.phase("inner_a"):
                rec.count("sample_size", 1)
            with rec.phase("inner_b"):
                rec.count("sample_size", 2)
        (outer,) = rec.spans
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert outer.counters == {"sample_size": 3}
        assert outer.children[0].counters == {"sample_size": 1}
        assert outer.children[1].counters == {"sample_size": 2}

    def test_unchanged_counters_not_in_span_delta(self):
        rec = Recorder()
        rec.count("heap_pushes", 3)
        with rec.phase("quiet"):
            pass
        assert rec.spans[0].counters == {}

    def test_timers_aggregate_by_name(self):
        rec = Recorder()
        with rec.phase("a"):
            with rec.phase("b"):
                pass
        with rec.phase("b"):
            pass
        timers = rec.timers
        assert set(timers) == {"a", "b"}
        assert all(v >= 0.0 for v in timers.values())

    def test_phase_closes_on_exception(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with rec.phase("boom"):
                rec.count("sample_size")
                raise ValueError("boom")
        assert rec._stack == []
        assert rec.spans[0].counters == {"sample_size": 1}

    def test_snapshot_shape(self):
        rec = Recorder()
        with rec.phase("p"):
            rec.count("points_seen", 2)
        snap = rec.snapshot()
        assert set(snap) == {"counters", "histograms", "timers", "spans"}
        assert snap["spans"][0]["name"] == "p"
        assert snap["spans"][0]["counters"] == {"points_seen": 2}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["kernel_evals", "distance_evals", "heap_pushes"]),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_root_span_delta_equals_totals(self, increments):
        """Counts made anywhere under one root span sum into its delta."""
        rec = Recorder()
        with rec.phase("root"):
            for depth, (name, n) in enumerate(increments):
                if depth % 3 == 0:
                    with rec.phase("child"):
                        rec.count(name, n)
                else:
                    rec.count(name, n)
        totals = {}
        for name, n in increments:
            totals[name] = totals.get(name, 0) + n
        # Touched counters exist even at zero; span deltas drop zeros.
        assert rec.counters == totals
        assert rec.spans[0].counters == {
            k: v for k, v in totals.items() if v != 0
        }


class TestNullRecorder:
    def test_disabled_recorder_accumulates_nothing(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.count("kernel_evals", 10)
        with NULL_RECORDER.phase("fit"):
            NULL_RECORDER.count("data_passes")
        NULL_RECORDER.observe("kde_eval_chunk_seconds", 1.0)
        assert NULL_RECORDER.counters == {}
        assert NULL_RECORDER.spans == []
        assert NULL_RECORDER.histograms == {}
        assert NULL_RECORDER.snapshot() == {
            "counters": {},
            "histograms": {},
            "timers": {},
            "spans": [],
        }


class TestAmbientRecorder:
    def test_default_is_null(self):
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_installs_and_restores(self):
        rec = Recorder()
        with use_recorder(rec) as installed:
            assert installed is rec
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_recording_shorthand(self):
        with recording() as rec:
            get_recorder().count("sample_size", 2)
        assert rec.counters == {"sample_size": 2}

    def test_nested_recorders_restore_outer(self):
        outer, inner = Recorder(), Recorder()
        with use_recorder(outer):
            outer_seen = get_recorder()
            with use_recorder(inner):
                get_recorder().count("sample_size")
            assert get_recorder() is outer_seen
        assert inner.counters == {"sample_size": 1}
        assert outer.counters == {}

    def test_threads_are_isolated(self):
        """Two threads with their own recorders never see each other."""
        results = {}
        barrier = threading.Barrier(2)

        def work(tag, n):
            rec = Recorder()
            with use_recorder(rec):
                barrier.wait()  # both threads inside use_recorder at once
                for _ in range(n):
                    get_recorder().count(tag)
                barrier.wait()
            results[tag] = dict(rec.counters)

        threads = [
            threading.Thread(target=work, args=("kernel_evals", 11)),
            threading.Thread(target=work, args=("distance_evals", 7)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {
            "kernel_evals": {"kernel_evals": 11},
            "distance_evals": {"distance_evals": 7},
        }
        assert get_recorder() is NULL_RECORDER


class TestStopwatch:
    def test_measures_nonnegative_elapsed(self):
        with Stopwatch() as watch:
            sum(range(100))
        assert watch.elapsed >= 0.0


class TestFormatSpans:
    def test_renders_nested_tree(self):
        rec = Recorder()
        with rec.phase("outer"):
            with rec.phase("inner"):
                rec.count("kernel_evals", 5)
        text = format_spans(rec.snapshot()["spans"])
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "kernel_evals=5" in lines[1]


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


json_values = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)


class TestRunManifest:
    def test_from_recorder_captures_state(self):
        rec = Recorder()
        with rec.phase("run"):
            rec.count("sample_size", 42)
        manifest = RunManifest.from_recorder(
            rec, name="fig4", seed=3, params={"scale": 0.5}
        )
        assert manifest.name == "fig4"
        assert manifest.seed == 3
        assert manifest.counters == {"sample_size": 42}
        assert manifest.spans[0]["name"] == "run"
        assert manifest.elapsed == pytest.approx(
            manifest.spans[0]["elapsed_s"]
        )

    def test_elapsed_none_without_spans(self):
        assert RunManifest(name="empty").elapsed is None

    def test_environment_collected_by_default(self):
        env = RunManifest(name="x").environment
        assert sorted(env) == ["numpy", "platform", "python", "repro"]
        assert env["python"] == collect_environment()["python"]

    @given(
        name=st.text(min_size=1, max_size=20),
        seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
        params=st.dictionaries(st.text(max_size=10), json_values, max_size=5),
        counters=st.dictionaries(
            st.text(min_size=1, max_size=10),
            st.integers(min_value=0, max_value=10**9),
            max_size=5,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip(self, name, seed, params, counters):
        manifest = RunManifest(
            name=name, seed=seed, params=params, counters=counters
        )
        line = manifest.to_json()
        assert "\n" not in line
        back = RunManifest.from_json(line)
        assert back == manifest

    def test_emit_to_path_appends_json_lines(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        RunManifest(name="a", counters={"data_passes": 1}).emit(path)
        RunManifest(name="b").emit(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "a"
        assert json.loads(lines[1])["name"] == "b"

    def test_emit_to_stream(self):
        import io

        buffer = io.StringIO()
        RunManifest(name="x").emit(buffer)
        assert json.loads(buffer.getvalue())["name"] == "x"

    def test_emit_to_callable(self):
        received = []
        RunManifest(name="x", seed=9).emit(received.append)
        assert received[0]["seed"] == 9

    def test_emit_default_writes_stderr(self, capsys):
        RunManifest(name="x").emit()
        err = capsys.readouterr().err
        assert json.loads(err)["name"] == "x"

    def test_v2_round_trip_with_histograms(self):
        rec = Recorder()
        with rec.phase("run") as span:
            span.set(rows=10)
            rec.observe("kde_eval_chunk_seconds", 0.02)
            rec.observe("kde_eval_chunk_seconds", 0.2)
        manifest = RunManifest.from_recorder(rec, name="x", seed=1)
        assert manifest.schema_version == SCHEMA_VERSION
        hist = manifest.histograms["kde_eval_chunk_seconds"]
        assert hist["count"] == 2
        assert hist["p50"] > 0.0
        back = RunManifest.from_json(manifest.to_json())
        assert back == manifest
        assert back.spans[0]["attrs"]["rows"] == 10

    def test_v1_fixture_still_loads(self):
        """Manifests written before schema_version must keep loading."""
        fixture = Path(__file__).parent / "data" / "manifest_v1.json"
        manifest = RunManifest.from_json(fixture.read_text())
        assert manifest.schema_version == 1
        assert manifest.name == "fig4"
        assert manifest.counters["data_passes"] == 4
        assert manifest.histograms == {}
        assert manifest.profile == []
        assert manifest.spans[0]["children"][0]["name"] == "fit_density"


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_observe_buckets_and_totals(self):
        h = Histogram("latency_s", (0.1, 1.0))
        for v in (0.05, 0.2, 0.3, 5.0):
            h.observe(v)
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(5.55)

    def test_merge_folds_counts(self):
        a = Histogram("x", (1.0, 2.0))
        b = Histogram("x", (1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        a.merge(b.to_dict())  # dict form (the cross-worker shape)
        assert a.count == 5

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram("x", (1.0, 2.0))
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge(Histogram("x", (1.0, 3.0)))

    def test_merge_rejects_dict_payload_with_mismatched_bounds(self):
        a = Histogram("x", (1.0, 2.0))
        payload = Histogram("x", (1.0, 3.0)).to_dict()
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge(payload)

    @pytest.mark.parametrize("dropped", ["bounds", "counts", "count", "sum"])
    def test_from_dict_missing_key_fails_loudly(self, dropped):
        payload = Histogram("x", (1.0, 2.0)).to_dict()
        del payload[dropped]
        with pytest.raises(ValueError, match=f"missing required key.*{dropped}"):
            Histogram.from_dict(payload, name="x")

    def test_merge_rejects_dict_payload_missing_buckets(self):
        a = Histogram("x", (1.0, 2.0))
        payload = a.to_dict()
        del payload["counts"]
        with pytest.raises(ValueError, match="missing required key"):
            a.merge(payload)

    def test_from_dict_rejects_counts_length_mismatch(self):
        payload = Histogram("x", (1.0, 2.0)).to_dict()
        payload["counts"] = [0, 0]  # needs len(bounds) + 1 == 3
        with pytest.raises(ValueError, match="bucket counts"):
            Histogram.from_dict(payload, name="x")

    def test_quantiles(self):
        h = Histogram("x", (1.0, 2.0, 4.0))
        assert h.quantile(0.5) == 0.0  # empty
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert 0.0 < h.quantile(0.25) <= 1.0
        assert h.quantile(0.99) == 4.0  # overflow clamps to last bound
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_recorder_uses_schema_bounds(self):
        rec = Recorder()
        rec.observe("kde_eval_chunk_seconds", 0.01)
        hist = rec.histograms["kde_eval_chunk_seconds"]
        assert hist.bounds == HISTOGRAM_SCHEMA[
            "kde_eval_chunk_seconds"
        ].buckets

    def test_recorder_merge_histograms(self):
        rec = Recorder()
        rec.observe("stream_chunk_rows", 100)
        worker = Recorder()
        worker.observe("stream_chunk_rows", 200)
        rec.merge_histograms(
            {n: h.to_dict() for n, h in worker.histograms.items()}
        )
        assert rec.histograms["stream_chunk_rows"].count == 2


# ---------------------------------------------------------------------------
# Closed metric registries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["count", "observe"])
def test_unregistered_metric_raises(method):
    rec = Recorder()
    registry = "COUNTER_SCHEMA" if method == "count" else "HISTOGRAM_SCHEMA"
    with pytest.raises(ParameterError, match=f"'not_registered'.*{registry}"):
        getattr(rec, method)("not_registered", 1)
    assert rec.counters == {} and rec.histograms == {}
    # The disabled recorder stays a pure no-op.
    getattr(NULL_RECORDER, method)("not_registered", 1)


def test_every_registered_metric_fires():
    """Three small entry points fire exactly the registered metrics.

    The default KDE pipeline over a quarantining stream, sharded over
    two workers; the one-pass tree pipeline over a repairing stream;
    the DB(p,k) outlier detector. A registry entry that nothing records
    any more fails here; a name outside the registries fails at its
    call site.
    """
    dirty = make_fig5_dataset(n_points=4000, random_state=0).points.copy()
    dirty[::97] = np.nan
    outliers = make_outlier_dataset(n_points=4000, random_state=0)
    with recording() as rec:
        with use_config(shards=3, n_jobs=2):
            ApproximateClusteringPipeline(n_clusters=10, random_state=0).fit(
                None,
                stream=DataStream(
                    dirty, chunk_size=512, fault_policy="quarantine"
                ),
            )
        ApproximateClusteringPipeline(
            n_clusters=10,
            sampler=OnePassBiasedSampler(
                sample_size=200,
                exponent=-0.5,
                estimator=TreeDensityEstimator(random_state=0),
                random_state=0,
            ),
        ).fit(None, stream=DataStream(dirty, fault_policy="repair"))
        ApproximateOutlierDetector(
            k=outliers.guaranteed_radius,
            p=5,
            estimator=KernelDensityEstimator(n_kernels=500, random_state=0),
        ).detect(outliers.points)
    assert set(rec.counters) == set(COUNTER_SCHEMA)
    assert set(rec.histograms) == set(HISTOGRAM_SCHEMA)


# ---------------------------------------------------------------------------
# Span attributes and serialisation
# ---------------------------------------------------------------------------


class TestSpanAttrs:
    def test_phase_yields_span_with_attrs(self):
        rec = Recorder()
        with rec.phase("chunk", worker=3) as span:
            assert span.set(rows=500) is span  # chainable
        done = rec.spans[0]
        assert done.attrs == {"worker": 3, "rows": 500}
        assert done.start >= 0.0
        assert done.children == []

    def test_span_dict_round_trip_keeps_parent_links(self):
        rec = Recorder()
        with rec.phase("outer"):
            with rec.phase("inner") as span:
                span.set(chunk=1)
        data = rec.spans[0].to_dict()
        back = Span.from_dict(data)
        assert back.children[0].parent is back
        assert back.children[0].attrs == {"chunk": 1}
        assert back.to_dict() == data

    def test_null_recorder_span_is_inert(self):
        with NULL_RECORDER.phase("x", worker=1) as span:
            assert span.set(rows=5) is span
            assert span.elapsed == 0.0

    def test_adopted_spans_attach_under_open_phase(self):
        rec = Recorder()
        shipped = [{"name": "worker_task", "elapsed_s": 0.1,
                    "attrs": {"worker": 0}}]
        with rec.phase("scan"):
            rec.adopt_spans(shipped)
        scan = rec.spans[0]
        assert [c.name for c in scan.children] == ["worker_task"]
        assert scan.children[0].parent is scan

    def test_profile_attaches_per_function_table(self):
        rec = Recorder(profile=True)
        with rec.phase("work"):
            sum(i * i for i in range(20_000))
        table = rec.spans[0].attrs["profile"]
        assert isinstance(table, list) and table
        assert {"function", "calls", "self_s", "cum_s"} <= set(table[0])


class TestParallelTelemetry:
    def test_counters_and_results_identical_across_n_jobs(self, blobs):
        from repro.parallel import use_n_jobs

        def run(n_jobs):
            with recording() as rec, use_n_jobs(n_jobs):
                sample = DensityBiasedSampler(
                    sample_size=100, exponent=0.5, random_state=7
                ).sample(blobs)
            return dict(rec.counters), sample.indices.tolist()

        serial = run(1)
        assert run(2) == serial
        assert run(4) == serial

    def test_worker_spans_adopted_with_worker_attrs(self, blobs):
        from repro.parallel import use_n_jobs

        with recording() as rec, use_n_jobs(2):
            DensityBiasedSampler(
                sample_size=100, exponent=0.5, random_state=7
            ).sample(blobs)

        tasks = []

        def walk(span):
            if span.name == "worker_task":
                tasks.append(span)
            for child in span.children:
                walk(child)

        for root in rec.spans:
            walk(root)
        assert tasks, "parallel run shipped no worker spans"
        assert all("worker" in t.attrs and "chunk" in t.attrs
                   for t in tasks)


# ---------------------------------------------------------------------------
# Instrumentation through the library
# ---------------------------------------------------------------------------


class TestCounterDeterminism:
    def test_same_seed_identical_counters(self, blobs):
        def run():
            with recording() as rec:
                DensityBiasedSampler(
                    sample_size=100, exponent=0.5, random_state=7
                ).sample(blobs)
            return dict(rec.counters)

        assert run() == run()

    def test_sampler_records_expected_counters(self, blobs):
        with recording() as rec:
            sample = DensityBiasedSampler(
                sample_size=100, exponent=0.5, random_state=7
            ).sample(blobs)
        assert rec.counters["sample_size"] == len(sample)
        assert rec.counters["data_passes"] >= 2  # fit pass + eval pass
        assert rec.counters["kernel_evals"] > 0
        assert [s.name for s in rec.spans] == [
            "fit_density", "eval_density", "draw",
        ]

    def test_results_identical_with_and_without_recording(self, blobs):
        sampler_kwargs = dict(sample_size=100, exponent=0.5, random_state=7)
        plain = DensityBiasedSampler(**sampler_kwargs).sample(blobs)
        with recording():
            observed = DensityBiasedSampler(**sampler_kwargs).sample(blobs)
        np.testing.assert_array_equal(plain.indices, observed.indices)
        np.testing.assert_array_equal(plain.points, observed.points)
        np.testing.assert_array_equal(
            plain.probabilities, observed.probabilities
        )


class TestPipelineIntegration:
    def test_fit_reports_documented_data_passes(self, blobs):
        """Pins the paper's pass accounting: the default pipeline costs
        exactly 4 dataset passes (estimator fit, normaliser, sample
        gather, label assignment)."""
        with recording() as rec:
            result = ApproximateClusteringPipeline(
                n_clusters=2, random_state=0
            ).fit(blobs)
        assert rec.counters["data_passes"] == 4
        assert result.n_passes == 4

    def test_fit_span_tree_without_ambient_recorder(self, blobs):
        """n_passes is derived from a private recorder when none is
        installed, without leaking state into the null recorder."""
        result = ApproximateClusteringPipeline(
            n_clusters=2, random_state=0
        ).fit(blobs)
        assert result.n_passes == 4
        assert NULL_RECORDER.counters == {}

    def test_fit_records_phase_tree(self, blobs):
        with recording() as rec:
            ApproximateClusteringPipeline(
                n_clusters=2, random_state=0
            ).fit(blobs)
        (root,) = rec.spans
        assert root.name == "pipeline_fit"
        names = [child.name for child in root.children]
        assert names == ["sample", "cluster", "assign"]
        assert rec.counters["points_seen"] >= blobs.shape[0]
        assert rec.counters["distance_evals"] > 0
