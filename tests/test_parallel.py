"""Tests for repro.parallel: n_jobs resolution, backend selection, the
order-preserving chunk map with counter aggregation, and the library-wide
determinism contract (byte-identical results for any worker count)."""

import os

import numpy as np
import pytest

from repro.config import RunConfig, use_config
from repro.core import DensityBiasedSampler, OnePassBiasedSampler
from repro.density import KernelDensityEstimator, TreeDensityEstimator
from repro.exceptions import ParameterError
from repro.obs import Recorder, get_recorder, use_recorder
from repro.outliers import ApproximateOutlierDetector, NestedLoopOutlierDetector
from repro.parallel import (
    N_JOBS_ENV,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
    parallel_map_chunks,
    resolve_n_jobs,
    use_n_jobs,
)
from repro.sharding import SHARD_EVAL_PHASE, ShardPlan, shard_map
from repro.utils.streams import DataStream


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(N_JOBS_ENV, raising=False)
    monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)


class TestResolveNJobs:
    def test_default_is_serial(self, clean_env):
        assert resolve_n_jobs() == 1

    def test_explicit_wins(self, clean_env):
        assert resolve_n_jobs(3) == 3

    def test_negative_counts_from_machine(self, clean_env):
        assert resolve_n_jobs(-1) == (os.cpu_count() or 1)

    def test_very_negative_clamps_to_one(self, clean_env):
        assert resolve_n_jobs(-10_000) == 1

    def test_zero_rejected(self, clean_env):
        with pytest.raises(ParameterError):
            resolve_n_jobs(0)

    def test_env_variable(self, clean_env, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "5")
        assert resolve_n_jobs() == 5

    def test_env_variable_garbage_rejected(self, clean_env, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "lots")
        with pytest.raises(ParameterError):
            resolve_n_jobs()

    def test_ambient_default_beats_env(self, clean_env, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "5")
        with use_n_jobs(2):
            assert resolve_n_jobs() == 2
        assert resolve_n_jobs() == 5

    def test_explicit_beats_ambient(self, clean_env):
        with use_n_jobs(2):
            assert resolve_n_jobs(4) == 4

    def test_use_n_jobs_restores_on_exit(self, clean_env):
        with use_n_jobs(8):
            with use_n_jobs(None):
                assert resolve_n_jobs() == 8
            assert resolve_n_jobs() == 8
        assert resolve_n_jobs() == 1


class TestGetBackend:
    def test_serial_for_one_worker(self, clean_env):
        assert isinstance(get_backend(1), SerialBackend)

    def test_thread_is_default_parallel_kind(self, clean_env):
        backend = get_backend(4)
        assert isinstance(backend, ThreadBackend)
        assert backend.n_jobs == 4

    def test_explicit_process_kind(self, clean_env):
        with use_config(parallel_backend="process"):
            assert isinstance(get_backend(2), ProcessBackend)

    def test_serial_kind_overrides_count(self, clean_env):
        with use_config(parallel_backend="serial"):
            assert isinstance(get_backend(4), SerialBackend)

    def test_env_kind(self, clean_env, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        assert isinstance(get_backend(2), ProcessBackend)

    def test_unknown_kind_rejected(self, clean_env):
        with pytest.raises(ParameterError), use_config(parallel_backend="gpu"):
            get_backend(2)

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_map_preserves_order(self, clean_env, kind):
        with use_config(parallel_backend=kind):
            backend = get_backend(4)
        items = list(range(23))
        assert backend.map(_square, items) == [i * i for i in items]


def _square(x):
    return x * x


def _count_and_double(chunk):
    get_recorder().count("points_seen", int(chunk.shape[0]))
    return chunk * 2.0


class TestParallelMapChunks:
    def test_results_keep_submission_order(self, clean_env):
        chunks = [np.full(3, i, dtype=float) for i in range(17)]
        results = parallel_map_chunks(_count_and_double, chunks, n_jobs=4)
        merged = np.concatenate(results)
        expected = np.concatenate([c * 2.0 for c in chunks])
        np.testing.assert_array_equal(merged, expected)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_worker_counters_merge_into_ambient(self, clean_env, n_jobs):
        chunks = [np.ones(5), np.ones(7), np.ones(11)]
        recorder = Recorder()
        with use_recorder(recorder):
            parallel_map_chunks(_count_and_double, chunks, n_jobs=n_jobs)
        assert recorder.counters["points_seen"] == 23

    def test_process_backend_smoke(self, clean_env):
        chunks = [np.arange(4, dtype=float), np.arange(4, 9, dtype=float)]
        with use_config(parallel_backend="process"):
            results = parallel_map_chunks(_count_and_double, chunks, n_jobs=2)
        np.testing.assert_array_equal(results[0], np.arange(4) * 2.0)
        np.testing.assert_array_equal(results[1], np.arange(4, 9) * 2.0)


@pytest.fixture(scope="module")
def blob_data():
    rng = np.random.default_rng(11)
    dense = rng.normal(0.0, 0.05, size=(4000, 2))
    sparse = rng.uniform(-2.0, 2.0, size=(4000, 2))
    return np.vstack([dense, sparse])


def _run_recorded(fn, n_jobs=None):
    """Run ``fn`` under a fresh recorder (and ``use_n_jobs(n_jobs)``);
    return (result, counters)."""
    recorder = Recorder()
    with use_recorder(recorder), use_n_jobs(n_jobs):
        result = fn()
    return result, dict(recorder.counters)


def _worker_slots(recorder):
    """Worker slots of every ``worker_task`` span the recorder adopted."""
    workers = set()
    stack = list(recorder.spans)
    while stack:
        span = stack.pop()
        if span.name == "worker_task":
            workers.add(span.attrs["worker"])
        stack.extend(span.children)
    return workers


def _assert_same_sample(serial, parallel):
    np.testing.assert_array_equal(serial.indices, parallel.indices)
    np.testing.assert_array_equal(serial.points, parallel.points)
    np.testing.assert_array_equal(serial.probabilities, parallel.probabilities)
    assert serial.expected_size == parallel.expected_size


class TestNJobsEquivalence:
    """The hard requirement: byte-identical results for any n_jobs."""

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_kde_evaluate(self, blob_data, n_jobs):
        # The eval scan fans the serial KDE evaluate out: 5,000 rows in
        # three chunks are whole-chunk tasks at two workers and
        # row-range tasks at four.
        queries = blob_data[:5000]
        kde = KernelDensityEstimator(n_kernels=400, random_state=0).fit(
            blob_data
        )

        def scan():
            plan = ShardPlan(DataStream(queries, chunk_size=2048), 1)
            values = shard_map(
                plan, kde.evaluate, phase=SHARD_EVAL_PHASE, row_local=True
            )
            return np.concatenate(values)

        serial, serial_counters = _run_recorded(scan, 1)
        parallel, parallel_counters = _run_recorded(scan, n_jobs)
        assert serial.tobytes() == kde.evaluate(queries).tobytes()
        assert serial.tobytes() == parallel.tobytes()
        assert serial_counters == parallel_counters

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_biased_sampler(self, blob_data, n_jobs):
        def run(jobs):
            sampler = DensityBiasedSampler(
                sample_size=500, exponent=0.75, random_state=3
            )
            stream = DataStream(blob_data, chunk_size=1024)
            return _run_recorded(
                lambda: sampler.sample(None, stream=stream), jobs
            )

        serial, serial_counters = run(1)
        parallel, parallel_counters = run(n_jobs)
        _assert_same_sample(serial, parallel)
        assert serial_counters == parallel_counters

    @pytest.mark.parametrize("backend", ["kde", "tree"])
    def test_one_shard_eval_scan_fans_out(self, blob_data, clean_env, backend):
        # Unsharded, the density pass runs inline and the scan runner
        # fans it out: the 8,000-row array is one chunk, split into
        # row ranges for two workers — for every density backend.
        def run(jobs):
            estimator = (
                KernelDensityEstimator(random_state=0)
                if backend == "kde"
                else TreeDensityEstimator(random_state=0)
            )
            recorder = Recorder()
            with use_recorder(recorder), use_n_jobs(jobs):
                sample = DensityBiasedSampler(
                    sample_size=100, estimator=estimator, random_state=0
                ).sample(blob_data)
            return sample, dict(recorder.counters), recorder

        serial, serial_counters, serial_recorder = run(1)
        parallel, parallel_counters, parallel_recorder = run(2)
        assert _worker_slots(serial_recorder) == set()
        assert _worker_slots(parallel_recorder) == {0, 1}
        _assert_same_sample(serial, parallel)
        assert serial_counters == parallel_counters

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_onepass_sampler(self, blob_data, n_jobs):
        def run(jobs):
            sampler = OnePassBiasedSampler(
                sample_size=400, exponent=1.0, random_state=5
            )
            stream = DataStream(blob_data, chunk_size=1024)
            return _run_recorded(
                lambda: sampler.sample(None, stream=stream), jobs
            )

        serial, serial_counters = run(1)
        parallel, parallel_counters = run(n_jobs)
        _assert_same_sample(serial, parallel)
        assert serial_counters == parallel_counters

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_approximate_detector(self, blob_data, n_jobs):
        # The density screen fans out through the scan runner; so does
        # the one-pass outlier-count estimate.
        def run(jobs):
            detector = ApproximateOutlierDetector(
                k=0.05,
                fraction=0.001,
                estimator=KernelDensityEstimator(random_state=0),
            )
            stream = DataStream(blob_data, chunk_size=3000)
            return _run_recorded(
                lambda: (
                    detector.detect(None, stream=stream),
                    detector.estimate_outlier_count(None, stream=stream),
                ),
                jobs,
            )

        (serial, serial_count), serial_counters = run(1)
        (parallel, parallel_count), parallel_counters = run(n_jobs)
        np.testing.assert_array_equal(serial.indices, parallel.indices)
        np.testing.assert_array_equal(
            serial.neighbor_counts, parallel.neighbor_counts
        )
        assert serial.n_candidates == parallel.n_candidates > 0
        assert serial_count == parallel_count
        assert serial_counters == parallel_counters

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pruned_screen_counters_match(self, blob_data, clean_env, backend):
        # The screen picks the rows to evaluate on the coordinator, from
        # the data alone, so the rows the workers evaluate, and every
        # counter, are the same for any worker count and backend.
        kde = KernelDensityEstimator(n_kernels=300, random_state=0)
        kde.fit(blob_data)

        def run(jobs):
            detector = ApproximateOutlierDetector(
                k=0.05, fraction=0.001, estimator=kde
            )
            stream = DataStream(blob_data, chunk_size=3000)
            with use_config(parallel_backend=backend):
                return _run_recorded(
                    lambda: (
                        detector.detect(None, stream=stream),
                        detector.estimate_outlier_count(None, stream=stream),
                    ),
                    jobs,
                )

        (serial, serial_count), serial_counters = run(1)
        (parallel, parallel_count), parallel_counters = run(2)
        np.testing.assert_array_equal(serial.indices, parallel.indices)
        np.testing.assert_array_equal(
            serial.neighbor_counts, parallel.neighbor_counts
        )
        assert serial.n_candidates == parallel.n_candidates > 0
        assert serial_count == parallel_count
        assert serial_counters == parallel_counters
        assert serial_counters["screen_rows_pruned"] > 0

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_nested_loop_detector(self, n_jobs):
        rng = np.random.default_rng(9)
        data = np.vstack(
            [rng.normal(0.0, 0.1, size=(900, 2)), rng.uniform(-4, 4, (30, 2))]
        )

        def run(jobs):
            detector = NestedLoopOutlierDetector(
                k=1.0, fraction=0.97, block_size=128, n_jobs=jobs
            )
            return _run_recorded(lambda: detector.detect(data))

        serial, serial_counters = run(1)
        parallel, parallel_counters = run(n_jobs)
        np.testing.assert_array_equal(serial.indices, parallel.indices)
        np.testing.assert_array_equal(
            serial.neighbor_counts, parallel.neighbor_counts
        )
        assert serial_counters == parallel_counters

    def test_ambient_n_jobs_reaches_sampler(self, blob_data, clean_env):
        serial = DensityBiasedSampler(
            sample_size=300, exponent=1.0, random_state=1
        ).sample(blob_data)
        with use_n_jobs(4):
            parallel = DensityBiasedSampler(
                sample_size=300, exponent=1.0, random_state=1
            ).sample(blob_data)
        np.testing.assert_array_equal(serial.indices, parallel.indices)

    def test_env_n_jobs_reaches_sampler(self, blob_data, monkeypatch):
        serial = DensityBiasedSampler(
            sample_size=300, exponent=1.0, random_state=1
        ).sample(blob_data)
        monkeypatch.setenv(N_JOBS_ENV, "2")
        parallel = DensityBiasedSampler(
            sample_size=300, exponent=1.0, random_state=1
        ).sample(blob_data)
        np.testing.assert_array_equal(serial.indices, parallel.indices)


class TestWorkerContextRestore:
    """A task's worker-local context must never outlive the task.

    ``_run_task`` installs the captured fault policy, a private
    recorder and ``n_jobs=1``; all three installations are token-based
    and reset in a ``finally``, so the coordinator's ambient context is
    restored even when the task raises (regression: a leaked context
    would make the thread/serial backends observe worker state after
    the fan-in).
    """

    def _ambient(self):
        from repro.faults.policy import get_fault_policy

        return (get_recorder(), get_fault_policy(), resolve_n_jobs())

    def test_run_task_restores_ambient_context(self, clean_env):
        from repro.faults.policy import RowQuarantine, use_fault_policy
        from repro.parallel.map import _run_task

        outer = Recorder()
        policy = RowQuarantine("strict")
        with use_recorder(outer), use_fault_policy(policy), use_n_jobs(3):
            before = self._ambient()
            result, state = _run_task(
                lambda chunk: chunk * 2,
                RunConfig(fault_policy=RowQuarantine("quarantine")),
                False,
                1,
                (0, 21),
            )
            assert result == 42
            assert self._ambient() == before
            assert get_recorder() is outer

    def test_run_task_restores_context_when_task_raises(self, clean_env):
        from repro.faults.policy import RowQuarantine, use_fault_policy
        from repro.parallel.map import _run_task

        outer = Recorder()
        policy = RowQuarantine("strict")

        def explode(chunk):
            raise RuntimeError("task failure")

        with use_recorder(outer), use_fault_policy(policy), use_n_jobs(3):
            before = self._ambient()
            with pytest.raises(RuntimeError, match="task failure"):
                _run_task(
                    explode,
                    RunConfig(fault_policy=RowQuarantine("quarantine")),
                    False,
                    1,
                    (0, 1),
                )
            assert self._ambient() == before
            assert get_recorder() is outer

    def test_failed_fan_out_leaves_callers_context(self, clean_env):
        outer = Recorder()

        def explode(chunk):
            raise ValueError("poison chunk")

        with use_recorder(outer):
            with pytest.raises(ValueError, match="poison chunk"):
                with use_config(parallel_backend="thread"):
                    parallel_map_chunks(explode, [1, 2, 3], n_jobs=2)
            assert get_recorder() is outer
            assert resolve_n_jobs() == 1


def _task_config(_item):
    from repro.config import current_config

    return current_config()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_workers_see_coordinator_config(clean_env, backend):
    # Pool threads start with an empty context and worker processes may
    # not share the coordinator's: the harness ships the whole config,
    # so every task resolves what the coordinator would, bar n_jobs.
    from dataclasses import replace

    from repro.config import current_config

    with use_config(
        shards=3,
        density_backend="tree",
        fault_policy="quarantine",
        parallel_backend=backend,
    ):
        coordinator = current_config()
        seen = parallel_map_chunks(_task_config, [0, 1, 2, 3], n_jobs=2)
    assert seen == [replace(coordinator, n_jobs=1)] * 4
