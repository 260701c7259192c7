"""Chaos suite: fault injection, hardening policies, and retry behaviour.

Every test here drives the *real* code path — the same RowQuarantine /
RetryPolicy layer production streams apply — under seeded, replayable
faults from a FaultPlan. The suite asserts the three contracts the
hardening layer advertises:

* typed failures: strict mode raises DataValidationError naming the
  offending pass and chunk offset; exhausted retries raise
  StreamReadError;
* exact accounting: ``rows_quarantined`` equals the injected
  invalid-row count, per the run manifest;
* determinism: byte-identical results for a fixed seed across repeated
  runs and across ``n_jobs`` in {1, 2}.
"""

import numpy as np
import pytest

from repro import ApproximateClusteringPipeline
from repro.clustering import CureClustering
from repro.core import DensityBiasedSampler
from repro.datasets import cure_dataset1
from repro.evaluation import count_found_clusters
from repro.exceptions import (
    DataValidationError,
    ParameterError,
    StreamReadError,
    TransientIOError,
)
from repro.faults import (
    FaultPlan,
    FaultyStream,
    RetryPolicy,
    RowQuarantine,
    get_fault_policy,
    resolve_fault_policy,
    use_fault_policy,
)
from repro.obs import Recorder, RunManifest, use_recorder
from repro.sharding import use_shards
from repro.utils.streams import DataStream

pytestmark = pytest.mark.chaos


@pytest.fixture
def clean_data():
    rng = np.random.default_rng(42)
    return rng.normal(size=(2000, 3))


class TestFaultPlan:
    def test_chunk_faults_deterministic(self):
        plan = FaultPlan(
            seed=7,
            nan_row_rate=0.05,
            inf_row_rate=0.05,
            corrupt_cell_rate=0.01,
            short_read_rate=0.3,
        )
        a = plan.chunk_faults(3, 500, 4)
        b = plan.chunk_faults(3, 500, 4)
        np.testing.assert_array_equal(a.nan_rows, b.nan_rows)
        np.testing.assert_array_equal(a.inf_rows, b.inf_rows)
        np.testing.assert_array_equal(a.corrupt_rows, b.corrupt_rows)
        np.testing.assert_array_equal(a.corrupt_values, b.corrupt_values)
        assert a.n_truncated == b.n_truncated

    def test_chunks_get_independent_decisions(self):
        plan = FaultPlan(seed=0, nan_row_rate=0.1)
        rows = [tuple(plan.chunk_faults(i, 400, 2).nan_rows) for i in range(8)]
        assert len(set(rows)) > 1

    def test_nan_and_inf_rows_disjoint(self):
        plan = FaultPlan(seed=1, nan_row_rate=0.4, inf_row_rate=0.4)
        for chunk_index in range(5):
            faults = plan.chunk_faults(chunk_index, 300, 2)
            assert np.intersect1d(faults.nan_rows, faults.inf_rows).size == 0

    def test_value_faults_only_hit_delivered_rows(self):
        plan = FaultPlan(
            seed=2,
            nan_row_rate=0.2,
            inf_row_rate=0.2,
            corrupt_cell_rate=0.05,
            short_read_rate=1.0,
            short_read_fraction=0.5,
        )
        faults = plan.chunk_faults(0, 200, 3)
        delivered = 200 - faults.n_truncated
        assert faults.n_truncated == 100
        for rows in (faults.nan_rows, faults.inf_rows, faults.corrupt_rows):
            assert rows.size == 0 or rows.max() < delivered

    def test_io_failures_keyed_by_pass_and_chunk(self):
        plan = FaultPlan(seed=3, io_error_rate=1.0, io_failures=2)
        assert plan.io_failures_for(1, 0) == 2
        assert plan.io_failures_for(1, 0) == 2
        clean = FaultPlan(seed=3, io_error_rate=0.0)
        assert clean.io_failures_for(1, 0) == 0
        # Mid-rate plans must not fail identically on every (pass, chunk).
        flaky = FaultPlan(seed=4, io_error_rate=0.5)
        outcomes = {
            flaky.io_failures_for(p, c) for p in (1, 2, 3) for c in range(6)
        }
        assert outcomes == {0, 1}

    def test_rates_validated(self):
        with pytest.raises(ParameterError):
            FaultPlan(nan_row_rate=1.5)
        with pytest.raises(ParameterError):
            FaultPlan(io_failures=0)

    def test_corrupt_detectable_by(self):
        plan = FaultPlan(corrupt_cell_rate=0.01, corrupt_magnitude=1e30)
        assert not plan.corrupt_detectable_by(RowQuarantine("quarantine"))
        assert plan.corrupt_detectable_by(
            RowQuarantine("quarantine", max_abs=1e6)
        )


class TestRetryPolicy:
    def test_deterministic_backoff_schedule(self):
        policy = RetryPolicy(max_retries=3, base_delay=0.5, multiplier=2.0)
        assert policy.delays() == [0.5, 1.0, 2.0]

    def test_recovers_within_budget_and_counts(self):
        policy = RetryPolicy(max_retries=3)
        calls = []

        def attempt(index):
            calls.append(index)
            if index < 2:
                raise TransientIOError("flaky")
            return "ok"

        recorder = Recorder()
        with use_recorder(recorder):
            assert policy.call(attempt) == "ok"
        assert calls == [0, 1, 2]
        assert recorder.counters["retries"] == 2

    def test_exhaustion_raises_stream_read_error(self):
        policy = RetryPolicy(max_retries=2)

        def attempt(index):
            raise TransientIOError("always down")

        with pytest.raises(StreamReadError) as excinfo:
            policy.call(attempt, describe="chunk 9 read")
        assert "chunk 9 read" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, TransientIOError)

    def test_stream_read_error_is_not_retryable(self):
        # The give-up signal must never match retry_on=(OSError,), or a
        # nested retry loop would swallow its own failure.
        assert not issubclass(StreamReadError, OSError)
        assert issubclass(TransientIOError, IOError)

    def test_non_retryable_errors_propagate(self):
        policy = RetryPolicy(max_retries=5)

        def attempt(index):
            raise ValueError("not an IO problem")

        with pytest.raises(ValueError):
            policy.call(attempt)

    def test_sleep_called_with_planned_delays(self):
        slept = []
        policy = RetryPolicy(
            max_retries=3, base_delay=1.0, multiplier=3.0, sleep=slept.append
        )

        def attempt(index):
            if index < 2:
                raise TransientIOError("flaky")
            return index

        assert policy.call(attempt) == 2
        assert slept == [1.0, 3.0]


class TestRowQuarantine:
    def _chunk(self):
        chunk = np.arange(20.0).reshape(5, 4)
        chunk[1] = np.nan
        chunk[3, 2] = np.inf
        return chunk

    def test_strict_names_pass_and_chunk_offset(self):
        with pytest.raises(DataValidationError) as excinfo:
            RowQuarantine("strict").apply(
                self._chunk(), origin="data", pass_index=2, start=128
            )
        message = str(excinfo.value)
        assert "pass 2" in message
        assert "chunk offset 128" in message
        assert "quarantine" in message  # points at the recovery knob

    def test_quarantine_drops_and_counts(self):
        recorder = Recorder()
        with use_recorder(recorder):
            clean = RowQuarantine("quarantine").apply(self._chunk())
        assert clean.shape == (3, 4)
        assert np.isfinite(clean).all()
        assert recorder.counters["rows_quarantined"] == 2

    def test_repair_imputes_chunk_column_means(self):
        chunk = np.array([[1.0, 10.0], [np.nan, 40.0], [3.0, np.inf]])
        recorder = Recorder()
        with use_recorder(recorder):
            repaired = RowQuarantine("repair").apply(chunk)
        assert repaired.shape == chunk.shape
        # Column means over the *valid* cells: (1+3)/2 and (10+40)/2.
        assert repaired[1, 0] == pytest.approx(2.0)
        assert repaired[2, 1] == pytest.approx(25.0)
        assert recorder.counters["rows_repaired"] == 2
        assert recorder.counters["cells_repaired"] == 2

    def test_max_abs_flags_finite_garbage(self):
        chunk = np.array([[1.0, 2.0], [1e12, 3.0], [4.0, 5.0]])
        policy = RowQuarantine("quarantine", max_abs=1e9)
        assert policy.count_invalid_rows(chunk) == 1
        clean = policy.apply(chunk)
        assert clean.shape == (2, 2)
        assert RowQuarantine("quarantine").count_invalid_rows(chunk) == 0

    def test_ambient_policy_context(self):
        assert get_fault_policy().mode == "strict"
        with use_fault_policy("repair"):
            assert get_fault_policy().mode == "repair"
            assert resolve_fault_policy(None).mode == "repair"
        assert get_fault_policy().mode == "strict"

    def test_resolve_rejects_unknown_mode(self):
        with pytest.raises(ParameterError):
            resolve_fault_policy("lenient")


class TestFaultyStream:
    def test_n_points_matches_delivery_every_pass(self, clean_data):
        stream = FaultyStream(
            DataStream(clean_data, chunk_size=256),
            FaultPlan(seed=11, nan_row_rate=0.02, short_read_rate=0.2),
            fault_policy="quarantine",
        )
        for _ in range(3):
            total = sum(chunk.shape[0] for chunk in stream)
            assert total == stream.n_points == len(stream)
        assert stream.n_points < clean_data.shape[0]

    def test_materialize_byte_identical(self, clean_data):
        def build():
            return FaultyStream(
                DataStream(clean_data, chunk_size=256),
                FaultPlan(seed=5, nan_row_rate=0.01, io_error_rate=0.3),
                fault_policy="quarantine",
            )

        first = build().materialize()
        second = build().materialize()
        assert first.tobytes() == second.tobytes()
        assert np.isfinite(first).all()

    def test_quarantined_matches_injected_exactly(self, clean_data):
        recorder = Recorder()
        stream = FaultyStream(
            DataStream(clean_data, chunk_size=256),
            FaultPlan(seed=9, nan_row_rate=0.03, inf_row_rate=0.01),
            fault_policy="quarantine",
        )
        with use_recorder(recorder):
            stream.materialize()
        assert recorder.counters["rows_quarantined"] > 0
        assert (
            recorder.counters["rows_quarantined"]
            == recorder.counters["fault_rows_injected"]
        )

    def test_transient_errors_recovered_within_budget(self, clean_data):
        recorder = Recorder()
        stream = FaultyStream(
            DataStream(clean_data, chunk_size=512),
            FaultPlan(seed=1, io_error_rate=1.0, io_failures=2),
            fault_policy="strict",
            retry_policy=RetryPolicy(max_retries=3),
        )
        with use_recorder(recorder):
            out = stream.materialize()
        np.testing.assert_array_equal(out, clean_data)
        assert recorder.counters["retries"] == recorder.counters[
            "io_errors_injected"
        ]
        assert recorder.counters["io_errors_injected"] == 2 * 4  # 4 chunks

    def test_exhausted_retries_raise_stream_read_error(self, clean_data):
        stream = FaultyStream(
            DataStream(clean_data, chunk_size=512),
            FaultPlan(seed=1, io_error_rate=1.0, io_failures=5),
            fault_policy="strict",
            retry_policy=RetryPolicy(max_retries=2),
        )
        with pytest.raises(StreamReadError):
            stream.materialize()

    def test_strict_raises_typed_error_with_location(self, clean_data):
        stream = FaultyStream(
            DataStream(clean_data, chunk_size=256),
            FaultPlan(seed=2, nan_row_rate=0.05),
            fault_policy="strict",
        )
        with pytest.raises(DataValidationError) as excinfo:
            list(stream)
        message = str(excinfo.value)
        assert "pass 1" in message
        assert "chunk offset" in message

    def test_repair_keeps_every_delivered_row(self, clean_data):
        stream = FaultyStream(
            DataStream(clean_data, chunk_size=256),
            FaultPlan(seed=3, nan_row_rate=0.05),
            fault_policy="repair",
        )
        out = stream.materialize()
        assert out.shape == clean_data.shape
        assert np.isfinite(out).all()

    def test_undetectable_corruption_passes_through(self, clean_data):
        # Finite garbage with no max_abs bound: nothing to quarantine,
        # every row survives — and the accounting knows it.
        stream = FaultyStream(
            DataStream(clean_data, chunk_size=256),
            FaultPlan(seed=4, corrupt_cell_rate=0.005),
            fault_policy="quarantine",
        )
        assert stream.n_points == clean_data.shape[0]
        out = stream.materialize()
        assert (np.abs(out) > 1e20).any()

    def test_max_abs_catches_corrupt_cells(self, clean_data):
        stream = FaultyStream(
            DataStream(clean_data, chunk_size=256),
            FaultPlan(seed=4, corrupt_cell_rate=0.005),
            fault_policy=RowQuarantine("quarantine", max_abs=1e6),
        )
        assert stream.n_points < clean_data.shape[0]
        out = stream.materialize()
        assert out.shape[0] == stream.n_points
        assert (np.abs(out) <= 1e6).all()

    def test_sharded_scans_byte_identical_to_unsharded(self):
        data = np.random.default_rng(0).normal(size=(5000, 2))

        def build():
            return FaultyStream(
                DataStream(data, chunk_size=500),
                FaultPlan(
                    seed=1, nan_row_rate=0.02, io_error_rate=0.3, io_failures=1
                ),
                fault_policy="quarantine",
            )

        # Shard plans split on the survivor counts, not the raw layout.
        stream = build()
        assert stream.chunk_sizes() == tuple(c.shape[0] for c in build())
        assert sum(stream.chunk_sizes()) == stream.n_points < data.shape[0]

        def run(shards):
            recorder = Recorder()
            sampler = DensityBiasedSampler(
                sample_size=200, exponent=0.5, random_state=0
            )
            with use_recorder(recorder), use_shards(shards):
                result = sampler.sample(stream=build())
            counters = {
                name: value
                for name, value in recorder.counters.items()
                if not name.startswith("shard")
            }
            return result, counters

        base, base_counters = run(1)
        got, got_counters = run(3)
        np.testing.assert_array_equal(base.points, got.points)
        np.testing.assert_array_equal(base.indices, got.indices)
        np.testing.assert_array_equal(base.probabilities, got.probabilities)
        assert base_counters == got_counters
        assert base_counters["io_errors_injected"] > 0
        assert (
            base_counters["rows_quarantined"]
            == base_counters["fault_rows_injected"]
            > 0
        )

    def test_plan_leaving_no_survivors_rejected(self):
        data = np.ones((10, 2))
        with pytest.raises(DataValidationError):
            FaultyStream(
                DataStream(data),
                FaultPlan(seed=0, nan_row_rate=1.0),
                fault_policy="quarantine",
            )


FAULT_KINDS = {
    "nan_rows": FaultPlan(seed=21, nan_row_rate=0.02),
    "inf_rows": FaultPlan(seed=22, inf_row_rate=0.02),
    "corrupt_cells": FaultPlan(seed=23, corrupt_cell_rate=0.002),
    "short_reads": FaultPlan(seed=24, short_read_rate=0.3),
    "io_errors": FaultPlan(seed=25, io_error_rate=0.5, io_failures=1),
    "everything": FaultPlan(
        seed=26,
        nan_row_rate=0.01,
        inf_row_rate=0.01,
        corrupt_cell_rate=0.001,
        short_read_rate=0.2,
        io_error_rate=0.3,
    ),
}

#: Fault kinds that put invalid *values* in delivered rows (strict mode
#: must reject the run; short reads and IO errors deliver clean values).
VALUE_FAULTS = {"nan_rows", "inf_rows", "everything"}


class TestPipelineChaosMatrix:
    @pytest.fixture(scope="class")
    def dataset(self):
        return cure_dataset1(n_points=1500, random_state=0)

    def _run(self, dataset, plan, policy):
        stream = FaultyStream(
            DataStream(dataset.points, chunk_size=256),
            plan,
            fault_policy=policy,
        )
        pipeline = ApproximateClusteringPipeline(
            n_clusters=5,
            sampler=DensityBiasedSampler(
                sample_size=300, exponent=0.5, random_state=0
            ),
            random_state=0,
        )
        return pipeline.fit(None, stream=stream), stream

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    @pytest.mark.parametrize("mode", ["strict", "quarantine", "repair"])
    def test_completes_or_raises_documented_error(self, dataset, kind, mode):
        plan = FAULT_KINDS[kind]
        if mode == "strict" and kind in VALUE_FAULTS:
            with pytest.raises(DataValidationError):
                self._run(dataset, plan, mode)
            return
        result, stream = self._run(dataset, plan, mode)
        assert result.labels.shape[0] == stream.n_points
        assert np.isfinite(result.clustering.centers).all()


class TestFig3Acceptance:
    """The issue's acceptance scenario on the fig3 (CURE dataset1) data."""

    SEED = 0
    PLAN = FaultPlan(seed=0, nan_row_rate=0.01)  # seeded 1% row corruption

    @pytest.fixture(scope="class")
    def dataset(self):
        return cure_dataset1(n_points=4000, random_state=self.SEED)

    def _run(self, dataset, n_jobs=None):
        recorder = Recorder()
        with use_recorder(recorder):
            stream = FaultyStream(
                DataStream(dataset.points, chunk_size=512),
                self.PLAN,
                fault_policy="quarantine",
            )
            pipeline = ApproximateClusteringPipeline(
                n_clusters=5,
                sampler=DensityBiasedSampler(
                    sample_size=600, exponent=0.5, random_state=self.SEED
                ),
                clusterer=CureClustering(n_clusters=5),
                random_state=self.SEED,
                n_jobs=n_jobs,
            )
            result = pipeline.fit(None, stream=stream)
        manifest = RunManifest.from_recorder(
            recorder, name="fig3-chaos", seed=self.SEED
        )
        return result, manifest

    def test_quarantine_run_completes_with_exact_accounting(self, dataset):
        result, manifest = self._run(dataset)
        assert manifest.counters["rows_quarantined"] > 0
        assert (
            manifest.counters["rows_quarantined"]
            == manifest.counters["fault_rows_injected"]
        )
        assert result.labels.shape[0] < dataset.points.shape[0]

    def test_cluster_recovery_survives_quarantine(self, dataset):
        result, _ = self._run(dataset)
        found = count_found_clusters(result.clustering, dataset.clusters)
        assert found >= 4

    def test_byte_identical_across_runs_and_n_jobs(self, dataset):
        baseline, manifest1 = self._run(dataset)
        repeat, manifest2 = self._run(dataset)
        parallel, manifest3 = self._run(dataset, n_jobs=2)
        assert baseline.labels.tobytes() == repeat.labels.tobytes()
        assert baseline.labels.tobytes() == parallel.labels.tobytes()
        assert (
            baseline.clustering.centers.tobytes()
            == parallel.clustering.centers.tobytes()
        )
        for key in ("rows_quarantined", "fault_rows_injected", "data_passes"):
            assert manifest1.counters[key] == manifest2.counters[key]
            assert manifest1.counters[key] == manifest3.counters[key]

    def test_strict_variant_raises_naming_pass_and_offset(self, dataset):
        stream = FaultyStream(
            DataStream(dataset.points, chunk_size=512),
            self.PLAN,
            fault_policy="strict",
        )
        pipeline = ApproximateClusteringPipeline(
            n_clusters=5, random_state=self.SEED
        )
        with pytest.raises(DataValidationError) as excinfo:
            pipeline.fit(None, stream=stream)
        message = str(excinfo.value)
        assert "pass" in message
        assert "chunk offset" in message


class TestPipelineFaultPolicyArgument:
    def test_pipeline_applies_policy_to_plain_arrays(self):
        rng = np.random.default_rng(0)
        data = np.vstack(
            [rng.normal(c, 0.05, (600, 2)) for c in ((0, 0), (1, 1))]
        )
        data[::100] = np.nan  # 12 poisoned rows
        with pytest.raises(DataValidationError):
            ApproximateClusteringPipeline(n_clusters=2, random_state=0).fit(
                data
            )
        result = ApproximateClusteringPipeline(
            n_clusters=2, random_state=0, fault_policy="quarantine"
        ).fit(data)
        assert result.labels.shape[0] == data.shape[0] - 12

    def test_run_experiment_exposes_fault_policy(self):
        import io

        from repro.experiments import run_experiment

        result = run_experiment(
            "fig3",
            scale=0.02,
            seed=0,
            verbose=False,
            out=io.StringIO(),
            fault_policy="quarantine",
        )
        assert result.manifest is not None
        assert result.manifest.params["fault_policy"] == "quarantine"

    def test_cli_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "fig3", "--fault-policy", "repair"]
        )
        assert args.fault_policy == "repair"
