"""Tests for sharded out-of-core fitting (repro.sharding).

The headline contract: every fit, evaluation and gather scan runs as a
ShardPlan scan, and its result is *byte-identical* for any shard count
— samples, weights, density values and merged counters all exact — for
any worker count, stream type and fault policy. The unsharded run is
S=1, so it is in turn checked against references computed here, from
the whole array. DESIGN.md §13 explains why; these tests pin it.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.biased import DensityBiasedSampler
from repro.core.onepass import OnePassBiasedSampler
from repro.core.uniform import UniformSampler
from repro.density.kde import KernelDensityEstimator
from repro.density.reservoir import ReservoirSampler
from repro.density.tree import TreeDensityEstimator
from repro.exceptions import ParameterError
from repro.obs import Recorder, use_recorder
from repro.parallel import use_n_jobs
from repro.sharding import (
    ShardPlan,
    ShardView,
    resolve_shards,
    shard_map,
    use_shards,
)
from repro.utils.filestreams import CsvFileStream, NpyFileStream
from repro.utils.streams import DataStream


@pytest.fixture
def array():
    return np.random.default_rng(7).normal(size=(611, 3))


@pytest.fixture
def npy_path(array, tmp_path):
    path = os.path.join(tmp_path, "data.npy")
    np.save(path, array)
    return path


@pytest.fixture
def csv_path(array, tmp_path):
    path = os.path.join(tmp_path, "data.csv")
    np.savetxt(path, array, delimiter=",")
    return path


def _counters_sans_shard(recorder):
    """Counters minus the shard bookkeeping (`shard*` exists only on
    sharded runs, by construction — see DESIGN.md §13)."""
    return {
        name: value
        for name, value in recorder.counters.items()
        if not name.startswith("shard")
    }


# ---------------------------------------------------------------------------
# Plan / context units
# ---------------------------------------------------------------------------


class TestResolveShards:
    def test_default_is_unsharded(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None) == 1

    def test_explicit_wins(self):
        with use_shards(4):
            assert resolve_shards(2) == 2
            assert resolve_shards(None) == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "5")
        assert resolve_shards(None) == 5

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "lots")
        with pytest.raises(ParameterError, match="REPRO_SHARDS"):
            resolve_shards(None)

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError, match="shards"):
            resolve_shards(0)
        with pytest.raises(ParameterError, match="shards"):
            with use_shards(-1):
                pass


class TestShardPlan:
    def test_specs_partition_the_chunk_sequence(self, array):
        stream = DataStream(array, chunk_size=100)
        plan = ShardPlan(stream, 3)
        assert plan.n_rows == len(stream)
        assert plan.specs[0].chunk_lo == 0
        assert plan.specs[-1].chunk_hi == len(plan.chunk_sizes)
        for left, right in zip(plan.specs, plan.specs[1:]):
            assert right.chunk_lo == left.chunk_hi
            assert right.row_start == left.row_stop
        assert sum(spec.n_rows for spec in plan.specs) == plan.n_rows

    def test_views_replay_the_serial_pass(self, array):
        stream = DataStream(array, chunk_size=97)
        plan = ShardPlan(stream, 4)
        serial = list(stream.iter_with_offsets())
        sharded = [
            pair for view in plan.views() for pair in view.chunks()
        ]
        assert [s for s, _ in sharded] == [s for s, _ in serial]
        for (_, expected), (_, actual) in zip(serial, sharded):
            np.testing.assert_array_equal(expected, actual)

    def test_more_shards_than_chunks_leaves_surplus_empty(self, array):
        stream = DataStream(array, chunk_size=400)  # 2 chunks
        plan = ShardPlan(stream, 7)
        views = plan.views()
        assert len(views) == 2
        assert all(isinstance(view, ShardView) for view in views)
        assert sum(spec.n_chunks == 0 for spec in plan.specs) == 5

    def test_rejects_non_positive_shards(self, array):
        with pytest.raises(ParameterError, match="n_shards"):
            ShardPlan(DataStream(array), 0)


def _offset_and_rows(offset, chunk):
    return offset, chunk.shape[0]


def _add_rows(left, right):
    return left[0], left[1] + right[1]


def _row_sums(chunk):
    return chunk.sum(axis=1)


#: ``(rows, S)`` -> the ``shard*`` counters one scan records, for a
#: plain and a ``fit=True`` scan. 611 rows in 89-row chunks are seven
#: chunks, so ``S = 9`` leaves two shards empty; an empty stream still
#: scans one (empty) shard. Manifests compare these names and values
#: across runs, so they are pinned exactly.
_SCAN_COUNTERS = {
    (611, 1): ({}, {}),
    (611, 2): (
        {"shard_rows": 611, "shard_merges": 1},
        {"shard_rows": 611, "shard_merges": 1, "shards_fitted": 2},
    ),
    (611, 3): (
        {"shard_rows": 611, "shard_merges": 2},
        {"shard_rows": 611, "shard_merges": 2, "shards_fitted": 3},
    ),
    (611, 9): (
        {"shard_rows": 611, "shard_merges": 6},
        {"shard_rows": 611, "shard_merges": 6, "shards_fitted": 7},
    ),
    (0, 3): ({"shard_rows": 0}, {"shard_rows": 0, "shards_fitted": 1}),
}


class TestShardMap:
    @pytest.mark.parametrize("fit", [False, True], ids=["scan", "fit"])
    @pytest.mark.parametrize("n_rows, shards", sorted(_SCAN_COUNTERS))
    def test_results_in_stream_order_with_shard_counters(
        self, tmp_path, n_rows, shards, fit
    ):
        data = np.random.default_rng(7).normal(size=(n_rows, 3))
        path = os.path.join(tmp_path, "data.npy")
        np.save(path, data)
        stream = NpyFileStream(path, chunk_size=89)
        serial = [
            (offset, chunk.shape[0])
            for offset, chunk in NpyFileStream(
                path, chunk_size=89
            ).iter_with_offsets()
        ]
        recorder = Recorder()
        with use_recorder(recorder):
            results = shard_map(
                ShardPlan(stream, shards), _offset_and_rows, fit=fit
            )
        assert results == serial
        assert stream.passes == 1
        assert recorder.counters["data_passes"] == 1
        shard_counters = {
            name: value
            for name, value in recorder.counters.items()
            if name.startswith("shard")
        }
        assert shard_counters == _SCAN_COUNTERS[n_rows, shards][fit]

    @pytest.mark.parametrize("shards", [1, 3, 9])
    def test_combine_pre_reduces_each_shard(self, array, shards):
        stream = DataStream(array, chunk_size=89)
        plan = ShardPlan(stream, shards)
        results = shard_map(plan, _offset_and_rows, combine=_add_rows)
        views = plan.views()
        assert results == [
            (view.spec.row_start, view.spec.n_rows) for view in views
        ]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_row_local_scan_returns_per_chunk_values(
        self, array, shards, n_jobs
    ):
        with use_n_jobs(n_jobs):
            values = shard_map(
                ShardPlan(DataStream(array, chunk_size=89), shards),
                _row_sums,
                row_local=True,
            )
        assert [part.shape[0] for part in values] == [89] * 6 + [77]
        np.testing.assert_array_equal(
            np.concatenate(values), _row_sums(array)
        )


# ---------------------------------------------------------------------------
# Byte-identity: sharded vs serial
# ---------------------------------------------------------------------------


SAMPLERS = {
    "density": lambda: DensityBiasedSampler(
        sample_size=80,
        exponent=-0.5,
        estimator=KernelDensityEstimator(n_kernels=64, random_state=5),
        random_state=13,
    ),
    "onepass": lambda: OnePassBiasedSampler(
        sample_size=80,
        exponent=-0.5,
        estimator=KernelDensityEstimator(n_kernels=64, random_state=5),
        random_state=13,
    ),
    "uniform": lambda: UniformSampler(sample_size=80, random_state=13),
}


def _run_sampler(make_sampler, make_stream, shards):
    recorder = Recorder()
    with use_recorder(recorder), use_shards(shards):
        result = make_sampler().sample(stream=make_stream())
    return result, recorder


class TestShardedEquivalence:
    @pytest.mark.parametrize("sampler_key", sorted(SAMPLERS))
    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_samplers_byte_identical_in_memory(
        self, array, sampler_key, shards
    ):
        make = SAMPLERS[sampler_key]
        base, rec0 = _run_sampler(
            make, lambda: DataStream(array, chunk_size=89), 1
        )
        got, rec1 = _run_sampler(
            make, lambda: DataStream(array, chunk_size=89), shards
        )
        np.testing.assert_array_equal(base.points, got.points)
        np.testing.assert_array_equal(base.indices, got.indices)
        np.testing.assert_array_equal(base.probabilities, got.probabilities)
        np.testing.assert_array_equal(base.weights, got.weights)
        assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)
        # S=1 against the whole array: the gathered rows are X[mask],
        # and an unsharded manifest carries no shard bookkeeping.
        np.testing.assert_array_equal(base.points, array[base.indices])
        assert rec0.counters == _counters_sans_shard(rec0)

    def test_density_pass_matches_whole_array_evaluation(self, array):
        sampler = SAMPLERS["density"]()
        with use_shards(1):
            result = sampler.sample(stream=DataStream(array, chunk_size=89))
        densities = sampler.estimator_.evaluate(array)
        np.testing.assert_array_equal(
            result.densities, densities[result.indices]
        )
        np.testing.assert_array_equal(
            sampler.probabilities_, sampler.compute_probabilities(densities)
        )

    @pytest.mark.parametrize("kind", ["npy", "csv"])
    def test_samplers_byte_identical_on_files(
        self, kind, npy_path, csv_path
    ):
        path = npy_path if kind == "npy" else csv_path
        cls = NpyFileStream if kind == "npy" else CsvFileStream
        make = SAMPLERS["density"]
        base, rec0 = _run_sampler(make, lambda: cls(path, chunk_size=89), 1)
        for shards in (2, 3, 7):
            got, rec1 = _run_sampler(
                make, lambda: cls(path, chunk_size=89), shards
            )
            np.testing.assert_array_equal(base.points, got.points)
            np.testing.assert_array_equal(
                base.probabilities, got.probabilities
            )
            assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)

    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_kde_fit_byte_identical(self, array, shards):
        def fit(n_shards):
            with use_shards(n_shards):
                return KernelDensityEstimator(
                    n_kernels=64, random_state=3
                ).fit(DataStream(array, chunk_size=89))

        base, got = fit(1), fit(shards)
        # S=1 against a plain reservoir loop over the same chunks.
        reference = ReservoirSampler(64, random_state=3)
        for start in range(0, len(array), 89):
            reference.extend(array[start : start + 89])
        np.testing.assert_array_equal(base.centers_, reference.sample)
        np.testing.assert_array_equal(base.centers_, got.centers_)
        np.testing.assert_array_equal(base.bandwidths_, got.bandwidths_)
        assert base.n_points_ == got.n_points_
        grid = np.random.default_rng(0).normal(size=(50, 3))
        np.testing.assert_array_equal(base.evaluate(grid), got.evaluate(grid))

    def test_sharding_composes_with_worker_processes(self, array):
        make = SAMPLERS["density"]
        base, rec0 = _run_sampler(
            make, lambda: DataStream(array, chunk_size=89), 1
        )
        with use_n_jobs(2):
            got, rec1 = _run_sampler(
                make, lambda: DataStream(array, chunk_size=89), 3
            )
        np.testing.assert_array_equal(base.points, got.points)
        assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)

    def test_shard_counters_record_the_fanout(self, array):
        _, recorder = _run_sampler(
            SAMPLERS["density"], lambda: DataStream(array, chunk_size=89), 3
        )
        counters = recorder.counters
        assert counters["shards_fitted"] == 3
        assert counters["shard_merges"] > 0
        # Three sharded scans (fit, eval, gather) over 611 rows each.
        assert counters["shard_rows"] == 3 * len(array)


ESTIMATORS = {
    "kde": lambda: KernelDensityEstimator(n_kernels=64, random_state=5),
    "tree": lambda: TreeDensityEstimator(random_state=5),
}


class TestExecutionShapes:
    """Every (n_jobs, S) shape reproduces the serial one-shard run.

    611 rows in 256-row chunks: three chunks, so at ``S = 1`` two
    workers evaluate whole chunks and four split them into row ranges,
    while ``S = 3`` gives every shard worker one chunk.
    """

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize(
        "sampler_cls", [DensityBiasedSampler, OnePassBiasedSampler]
    )
    @pytest.mark.parametrize("backend", sorted(ESTIMATORS))
    def test_samplers_match_serial_run(
        self, array, backend, sampler_cls, shards, n_jobs
    ):
        def run(jobs, n_shards):
            sampler = sampler_cls(
                sample_size=80,
                exponent=-0.5,
                estimator=ESTIMATORS[backend](),
                random_state=13,
            )
            recorder = Recorder()
            with use_recorder(recorder), use_n_jobs(jobs), use_shards(n_shards):
                result = sampler.sample(stream=DataStream(array, chunk_size=256))
            return result, recorder

        base, rec0 = run(1, 1)
        got, rec1 = run(n_jobs, shards)
        np.testing.assert_array_equal(base.indices, got.indices)
        np.testing.assert_array_equal(base.points, got.points)
        np.testing.assert_array_equal(base.probabilities, got.probabilities)
        np.testing.assert_array_equal(base.densities, got.densities)
        assert base.expected_size == got.expected_size
        assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)
        if shards == 1:
            assert rec1.counters == _counters_sans_shard(rec1)


class TestEmptyInput:
    @pytest.mark.parametrize("backend", ["kde", "tree"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_empty_file_keeps_located_error(self, tmp_path, backend, shards):
        path = os.path.join(tmp_path, "empty.npy")
        np.save(path, np.empty((0, 2)))
        stream = NpyFileStream(path)
        assert stream.chunk_sizes() == ()
        estimator = (
            KernelDensityEstimator(random_state=0)
            if backend == "kde"
            else TreeDensityEstimator(random_state=0)
        )
        with use_shards(shards), pytest.raises(
            ParameterError, match="cannot fit a density estimator on no data"
        ):
            estimator.fit(stream=stream)


# ---------------------------------------------------------------------------
# Property: random streams x shard counts x fault policies
# ---------------------------------------------------------------------------


class TestShardedEquivalenceProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(
        n_rows=st.integers(min_value=30, max_value=300),
        chunk_size=st.integers(min_value=7, max_value=101),
        shards=st.sampled_from([1, 2, 3, 7]),
        policy=st.sampled_from(["strict", "quarantine", "repair"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sharded_fit_equals_serial(
        self, tmp_path, n_rows, chunk_size, shards, policy, seed
    ):
        data = np.random.default_rng(seed).normal(size=(n_rows, 2))
        if policy != "strict":
            data[n_rows // 3, 0] = np.nan  # policy has work to do
        path = os.path.join(tmp_path, f"h{seed}_{n_rows}_{chunk_size}.npy")
        np.save(path, data)

        def run(n_shards):
            recorder = Recorder()
            sampler = DensityBiasedSampler(
                sample_size=min(25, n_rows),
                exponent=-0.5,
                estimator=KernelDensityEstimator(
                    n_kernels=16, random_state=2
                ),
                random_state=seed,
            )
            stream = NpyFileStream(
                path, chunk_size=chunk_size, fault_policy=policy
            )
            with use_recorder(recorder), use_shards(n_shards):
                return sampler.sample(stream=stream), recorder

        base, rec0 = run(1)
        got, rec1 = run(shards)
        np.testing.assert_array_equal(base.points, got.points)
        np.testing.assert_array_equal(base.indices, got.indices)
        np.testing.assert_array_equal(base.probabilities, got.probabilities)
        np.testing.assert_array_equal(base.weights, got.weights)
        np.testing.assert_array_equal(base.densities, got.densities)
        assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)


# ---------------------------------------------------------------------------
# Fit scan integration
# ---------------------------------------------------------------------------


class _OverAdvertisedStream(DataStream):
    """Advertises five rows more in its last chunk than it yields."""

    def chunk_sizes(self):
        sizes = list(super().chunk_sizes())
        sizes[-1] += 5
        return tuple(sizes)


class TestKdeFitScan:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_row_count_mismatch_names_the_reservoir_plan(self, array, shards):
        stream = _OverAdvertisedStream(array, chunk_size=89)
        with use_shards(shards), pytest.raises(
            ParameterError, match="reservoir plan was drawn for 616"
        ):
            KernelDensityEstimator(n_kernels=8, random_state=0).fit(
                stream=stream
            )


class TestRunExperimentShards:
    def test_shards_param_recorded_and_equivalent(self):
        from repro.experiments.runner import run_experiment

        serial = run_experiment(
            "lemma1", scale=0.05, seed=0, verbose=False
        )
        sharded = run_experiment(
            "lemma1", scale=0.05, seed=0, verbose=False, shards=3
        )
        assert sharded.manifest.params["shards"] == 3
        base = {
            k: v
            for k, v in serial.manifest.counters.items()
            if not k.startswith("shard")
        }
        got = {
            k: v
            for k, v in sharded.manifest.counters.items()
            if not k.startswith("shard")
        }
        assert base == got
