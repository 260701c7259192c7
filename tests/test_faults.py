"""Fault-policy suite: strict, quarantine and repair over planted bad rows.

Every test here drives the *real* code path — the RowQuarantine policy
every stream applies — over data whose NaN, +/-inf or 1e30 rows are
planted directly in the array or in a ``.npy`` file. The suite asserts
the three contracts the policy layer advertises:

* typed failures: strict mode raises DataValidationError naming the
  offending pass and chunk offset;
* exact accounting: a quarantining stream counts each planted invalid
  row once under ``rows_quarantined``, however many passes it serves;
* determinism: byte-identical results for a fixed seed across repeated
  runs, across ``n_jobs`` in {1, 2} and across shard counts.
"""

import numpy as np
import pytest

from repro import ApproximateClusteringPipeline
from repro.clustering import CureClustering
from repro.core import DensityBiasedSampler
from repro.datasets import cure_dataset1
from repro.evaluation import count_found_clusters
from repro.exceptions import DataValidationError, ParameterError
from repro.faults import (
    RowQuarantine,
    get_fault_policy,
    resolve_fault_policy,
    use_fault_policy,
)
from repro.obs import Recorder, RunManifest, use_recorder
from repro.sharding import use_shards
from repro.utils.filestreams import CsvFileStream, NpyFileStream
from repro.utils.streams import DataStream


def plant(data, seed, nan_rate=0.0, inf_rate=0.0, corrupt_rate=0.0):
    """A copy of ``data`` with seeded bad rows and the rows planted.

    NaN and +/-inf rows are disjoint and fill every cell of their row;
    a corrupt cell holds finite garbage of magnitude 1e30, which only a
    ``max_abs`` bound detects. Returns ``(dirty, nonfinite, corrupt)``:
    the array and the sorted indices of the rows holding a non-finite
    value and of the rows holding a corrupt cell.
    """
    rng = np.random.default_rng(seed)
    dirty = np.array(data, dtype=np.float64)
    n, d = dirty.shape
    order = rng.permutation(n)
    n_nan, n_inf = int(nan_rate * n), int(inf_rate * n)
    nan_rows = order[:n_nan]
    inf_rows = order[n_nan : n_nan + n_inf]
    dirty[nan_rows] = np.nan
    signs = np.where(rng.random(n_inf) < 0.5, -1.0, 1.0)
    dirty[inf_rows] = signs[:, np.newaxis] * np.inf
    n_cells = int(corrupt_rate * n * d)
    cells = rng.choice(n * d, size=n_cells, replace=False)
    rows, cols = np.divmod(cells, d)
    dirty[rows, cols] = np.where(rng.random(n_cells) < 0.5, -1e30, 1e30)
    nonfinite = np.union1d(nan_rows, inf_rows)
    corrupt = np.setdiff1d(rows, nonfinite)
    return dirty, nonfinite, corrupt


def save(tmp_path, data, name="planted.npy"):
    path = str(tmp_path / name)
    np.save(path, data)
    return path


@pytest.fixture
def clean_data():
    rng = np.random.default_rng(42)
    return rng.normal(size=(2000, 3))


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
        # The first bad cell, located by its row in the whole source.
        assert "data[129, 0] is nan" in message

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
        assert policy.invalid_cells(chunk).any(axis=1).sum() == 1
        clean = policy.apply(chunk)
        assert clean.shape == (2, 2)
        assert not RowQuarantine("quarantine").invalid_cells(chunk).any()

    def test_ambient_policy_context(self):
        assert get_fault_policy().mode == "strict"
        with use_fault_policy("repair"):
            assert get_fault_policy().mode == "repair"
            assert resolve_fault_policy(None).mode == "repair"
        assert get_fault_policy().mode == "strict"

    def test_resolve_rejects_unknown_mode(self):
        with pytest.raises(ParameterError):
            resolve_fault_policy("lenient")


class TestPlantedFaults:
    def test_n_points_matches_delivery_every_pass(self, clean_data, tmp_path):
        dirty, nonfinite, _ = plant(clean_data, 11, nan_rate=0.02)
        stream = NpyFileStream(
            save(tmp_path, dirty), chunk_size=256, fault_policy="quarantine"
        )
        for _ in range(3):
            total = sum(chunk.shape[0] for chunk in stream)
            assert total == stream.n_points == len(stream)
        assert stream.n_points == clean_data.shape[0] - nonfinite.size
        assert nonfinite.size > 0

    def test_materialize_byte_identical(self, clean_data, tmp_path):
        dirty, _, _ = plant(clean_data, 5, nan_rate=0.01)
        path = save(tmp_path, dirty)

        def build():
            return NpyFileStream(
                path, chunk_size=256, fault_policy="quarantine"
            )

        first = build().materialize()
        second = build().materialize()
        assert first.tobytes() == second.tobytes()
        assert np.isfinite(first).all()

    def test_quarantined_matches_planted_exactly(self, clean_data, tmp_path):
        dirty, nonfinite, _ = plant(
            clean_data, 9, nan_rate=0.03, inf_rate=0.01
        )
        recorder = Recorder()
        with use_recorder(recorder):
            stream = NpyFileStream(
                save(tmp_path, dirty), chunk_size=256, fault_policy="quarantine"
            )
            out = stream.materialize()
            stream.materialize()
        assert recorder.counters["rows_quarantined"] == nonfinite.size > 0
        survivors = np.delete(clean_data, nonfinite, axis=0)
        assert out.tobytes() == survivors.tobytes()

    def test_strict_raises_typed_error_with_location(
        self, clean_data, tmp_path
    ):
        dirty, _, _ = plant(clean_data, 2, nan_rate=0.05)
        stream = NpyFileStream(
            save(tmp_path, dirty), chunk_size=256, fault_policy="strict"
        )
        with pytest.raises(DataValidationError) as excinfo:
            list(stream)
        message = str(excinfo.value)
        assert "pass 1" in message
        assert "chunk offset" in message

    def test_in_memory_strict_error_locates_the_row(self, clean_data):
        # An in-memory stream validates when it is built, so its error
        # names the load, not a pass.
        dirty = clean_data.copy()
        dirty[1234, 2] = np.inf
        with pytest.raises(DataValidationError) as excinfo:
            DataStream(dirty, chunk_size=256, fault_policy="strict")
        assert "data[1234, 2] is inf" in str(excinfo.value)

    def test_repair_keeps_every_delivered_row(self, clean_data, tmp_path):
        dirty, nonfinite, _ = plant(clean_data, 3, nan_rate=0.05)
        recorder = Recorder()
        with use_recorder(recorder):
            stream = NpyFileStream(
                save(tmp_path, dirty), chunk_size=256, fault_policy="repair"
            )
            out = stream.materialize()
            stream.materialize()
        assert out.shape == clean_data.shape
        assert np.isfinite(out).all()
        assert recorder.counters["rows_repaired"] == nonfinite.size > 0
        keep = np.setdiff1d(np.arange(clean_data.shape[0]), nonfinite)
        np.testing.assert_array_equal(out[keep], clean_data[keep])

    def test_undetectable_corruption_passes_through(
        self, clean_data, tmp_path
    ):
        # Finite garbage with no max_abs bound: nothing to quarantine,
        # every row survives — and the accounting knows it.
        dirty, _, corrupt = plant(clean_data, 4, corrupt_rate=0.005)
        stream = NpyFileStream(
            save(tmp_path, dirty), chunk_size=256, fault_policy="quarantine"
        )
        assert stream.n_points == clean_data.shape[0]
        out = stream.materialize()
        assert (np.abs(out) > 1e20).any(axis=1).sum() == corrupt.size > 0

    def test_max_abs_catches_corrupt_cells(self, clean_data, tmp_path):
        dirty, _, corrupt = plant(clean_data, 4, corrupt_rate=0.005)
        stream = NpyFileStream(
            save(tmp_path, dirty),
            chunk_size=256,
            fault_policy=RowQuarantine("quarantine", max_abs=1e6),
        )
        assert stream.n_points == clean_data.shape[0] - corrupt.size
        out = stream.materialize()
        assert out.shape[0] == stream.n_points
        assert (np.abs(out) <= 1e6).all()

    def test_sharded_scans_byte_identical_to_unsharded(self, tmp_path):
        data = np.random.default_rng(0).normal(size=(5000, 2))
        dirty, nonfinite, _ = plant(data, 1, nan_rate=0.02)
        path = save(tmp_path, dirty)

        def build():
            return NpyFileStream(
                path, chunk_size=500, fault_policy="quarantine"
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
        # The stream counts every planted row once, over all its passes.
        assert base_counters["data_passes"] > 1
        assert base_counters["rows_quarantined"] == nonfinite.size > 0

    def test_no_survivors_rejected(self, tmp_path):
        data = np.full((10, 2), np.nan)
        with pytest.raises(DataValidationError, match="quarantined"):
            NpyFileStream(save(tmp_path, data), fault_policy="quarantine")
        with pytest.raises(DataValidationError, match="quarantined"):
            DataStream(data, fault_policy="quarantine")


class TestFaultCountersOncePerStream:
    """Every stream type counts each planted row once, whatever the shape."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("mode", ["quarantine", "repair"])
    def test_every_stream_type_counts_the_same(
        self, clean_data, tmp_path, mode, shards
    ):
        dirty, nonfinite, _ = plant(clean_data, 7, nan_rate=0.02, inf_rate=0.01)
        npy = save(tmp_path, dirty)
        csv = str(tmp_path / "planted.csv")
        np.savetxt(csv, dirty, delimiter=",")
        builders = {
            "memory": lambda: DataStream(
                dirty, chunk_size=256, fault_policy=mode
            ),
            "npy": lambda: NpyFileStream(
                npy, chunk_size=256, fault_policy=mode
            ),
            "csv": lambda: CsvFileStream(
                csv, chunk_size=256, fault_policy=mode
            ),
        }
        seen = {}
        for kind, build in builders.items():
            recorder = Recorder()
            sampler = DensityBiasedSampler(
                sample_size=200, exponent=0.5, random_state=0
            )
            with use_recorder(recorder), use_shards(shards):
                sampler.sample(stream=build())
            assert recorder.counters["data_passes"] > 1
            batches = recorder.histograms.get("quarantine_batch_rows")
            seen[kind] = (
                {
                    name: recorder.counters.get(name, 0)
                    for name in (
                        "rows_quarantined", "rows_repaired", "cells_repaired"
                    )
                },
                batches.counts if batches is not None else None,
            )
        n_bad = nonfinite.size
        expected = (
            {"rows_quarantined": n_bad, "rows_repaired": 0, "cells_repaired": 0}
            if mode == "quarantine"
            else {
                "rows_quarantined": 0,
                "rows_repaired": n_bad,
                "cells_repaired": n_bad * clean_data.shape[1],
            }
        )
        assert n_bad > 0
        assert seen["memory"][0] == expected
        assert seen["npy"] == seen["memory"]
        assert seen["csv"] == seen["memory"]


#: Planted bad values per fault kind: keyword arguments for ``plant``.
FAULT_KINDS = {
    "nan_rows": dict(seed=21, nan_rate=0.02),
    "inf_rows": dict(seed=22, inf_rate=0.02),
    "corrupt_cells": dict(seed=23, corrupt_rate=0.002),
    "everything": dict(
        seed=26, nan_rate=0.01, inf_rate=0.01, corrupt_rate=0.001
    ),
}

#: Fault kinds that plant non-finite values (strict mode must reject
#: the run; finite 1e30 garbage passes a policy without ``max_abs``).
VALUE_FAULTS = {"nan_rows", "inf_rows", "everything"}


class TestPipelineChaosMatrix:
    """Every planted fault kind under every policy mode, end to end."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return cure_dataset1(n_points=1500, random_state=0)

    @pytest.fixture(scope="class")
    def planted_paths(self, dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("planted")
        paths = {}
        for kind, spec in FAULT_KINDS.items():
            dirty, nonfinite, _ = plant(dataset.points, **spec)
            paths[kind] = (save(root, dirty, f"{kind}.npy"), nonfinite.size)
        return paths

    def _run(self, path, policy):
        stream = NpyFileStream(path, chunk_size=256, fault_policy=policy)
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
    def test_completes_or_raises_documented_error(
        self, dataset, planted_paths, kind, mode
    ):
        path, n_nonfinite = planted_paths[kind]
        if mode == "strict" and kind in VALUE_FAULTS:
            with pytest.raises(DataValidationError, match="chunk offset"):
                self._run(path, mode)
            return
        result, stream = self._run(path, mode)
        assert result.labels.shape[0] == stream.n_points
        expected = dataset.points.shape[0]
        if mode == "quarantine":
            expected -= n_nonfinite
        assert stream.n_points == expected
        assert np.isfinite(result.clustering.centers).all()


class TestFig3Acceptance:
    """Quarantine end to end on the fig3 (CURE dataset1) data."""

    SEED = 0
    NAN_RATE = 0.01  # seeded 1% row corruption

    @pytest.fixture(scope="class")
    def dataset(self):
        return cure_dataset1(n_points=4000, random_state=self.SEED)

    @pytest.fixture(scope="class")
    def planted(self, dataset, tmp_path_factory):
        dirty, nonfinite, _ = plant(
            dataset.points, self.SEED, nan_rate=self.NAN_RATE
        )
        return save(tmp_path_factory.mktemp("fig3"), dirty), nonfinite.size

    def _run(self, path, n_jobs=None):
        recorder = Recorder()
        with use_recorder(recorder):
            stream = NpyFileStream(
                path, chunk_size=512, fault_policy="quarantine"
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
            recorder, name="fig3-quarantine", seed=self.SEED
        )
        return result, manifest

    def test_quarantine_run_completes_with_exact_accounting(
        self, dataset, planted
    ):
        path, n_planted = planted
        result, manifest = self._run(path)
        assert n_planted > 0
        # Each planted row is counted once, however many passes run.
        assert manifest.counters["data_passes"] > 1
        assert manifest.counters["rows_quarantined"] == n_planted
        assert result.labels.shape[0] == dataset.points.shape[0] - n_planted

    def test_one_read_quarantines_every_planted_row(self, planted):
        path, n_planted = planted
        recorder = Recorder()
        with use_recorder(recorder):
            NpyFileStream(path, fault_policy="quarantine").materialize()
        assert recorder.counters["rows_quarantined"] == n_planted > 0

    def test_cluster_recovery_survives_quarantine(self, dataset, planted):
        result, _ = self._run(planted[0])
        found = count_found_clusters(result.clustering, dataset.clusters)
        assert found >= 4

    def test_byte_identical_across_runs_and_n_jobs(self, planted):
        baseline, manifest1 = self._run(planted[0])
        repeat, manifest2 = self._run(planted[0])
        parallel, manifest3 = self._run(planted[0], n_jobs=2)
        assert baseline.labels.tobytes() == repeat.labels.tobytes()
        assert baseline.labels.tobytes() == parallel.labels.tobytes()
        assert (
            baseline.clustering.centers.tobytes()
            == parallel.clustering.centers.tobytes()
        )
        for key in ("rows_quarantined", "data_passes"):
            assert manifest1.counters[key] == manifest2.counters[key]
            assert manifest1.counters[key] == manifest3.counters[key]

    def test_strict_variant_raises_naming_pass_and_offset(self, planted):
        stream = NpyFileStream(
            planted[0], chunk_size=512, fault_policy="strict"
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
