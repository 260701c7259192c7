"""Tests for file-backed data streams."""

import os

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.faults import RowQuarantine, use_fault_policy
from repro.utils import CsvFileStream, NpyFileStream


@pytest.fixture
def array():
    return np.random.default_rng(0).normal(size=(257, 3))


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


class TestNpyFileStream:
    def test_metadata(self, npy_path, array):
        stream = NpyFileStream(npy_path, chunk_size=100)
        assert len(stream) == 257
        assert stream.n_dims == 3

    def test_chunks_reconstruct(self, npy_path, array):
        stream = NpyFileStream(npy_path, chunk_size=100)
        rebuilt = np.vstack(list(stream))
        np.testing.assert_allclose(rebuilt, array)
        assert stream.passes == 1

    def test_offsets(self, npy_path):
        stream = NpyFileStream(npy_path, chunk_size=100)
        offsets = [off for off, _ in stream.iter_with_offsets()]
        assert offsets == [0, 100, 200]

    def test_materialize(self, npy_path, array):
        stream = NpyFileStream(npy_path)
        np.testing.assert_allclose(stream.materialize(), array)

    def test_missing_file(self):
        with pytest.raises(DataValidationError):
            NpyFileStream("/nonexistent.npy")

    def test_rejects_1d(self, tmp_path):
        path = os.path.join(tmp_path, "flat.npy")
        np.save(path, np.arange(5))
        with pytest.raises(DataValidationError, match="2-D"):
            NpyFileStream(path)

    def test_feeds_estimator(self, npy_path):
        from repro.density import KernelDensityEstimator

        stream = NpyFileStream(npy_path, chunk_size=64)
        kde = KernelDensityEstimator(n_kernels=32, random_state=0)
        kde.fit(stream=stream)
        assert stream.passes == 1
        assert kde.n_points_ == 257


class TestCsvFileStream:
    def test_metadata(self, csv_path):
        stream = CsvFileStream(csv_path, chunk_size=100)
        assert len(stream) == 257
        assert stream.n_dims == 3

    def test_chunks_reconstruct(self, csv_path, array):
        stream = CsvFileStream(csv_path, chunk_size=100)
        rebuilt = np.vstack(list(stream))
        np.testing.assert_allclose(rebuilt, array, rtol=1e-6)

    def test_offsets(self, csv_path):
        stream = CsvFileStream(csv_path, chunk_size=128)
        offsets = [off for off, _ in stream.iter_with_offsets()]
        assert offsets == [0, 128, 256]

    def test_blank_lines_skipped(self, tmp_path):
        path = os.path.join(tmp_path, "gappy.csv")
        with open(path, "w") as handle:
            handle.write("1.0,2.0\n\n3.0,4.0\n")
        stream = CsvFileStream(path)
        assert len(stream) == 2

    def test_ragged_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "ragged.csv")
        with open(path, "w") as handle:
            handle.write("1.0,2.0\n3.0\n")
        with pytest.raises(DataValidationError, match="ragged"):
            CsvFileStream(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "text.csv")
        with open(path, "w") as handle:
            handle.write("1.0,abc\n")
        stream = CsvFileStream(path)
        with pytest.raises(DataValidationError, match="non-numeric"):
            list(stream)

    def test_empty_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "empty.csv")
        open(path, "w").close()
        with pytest.raises(DataValidationError, match="no data"):
            CsvFileStream(path)

    def test_end_to_end_sampling(self, csv_path):
        """The biased sampler runs out-of-core over a CSV file."""
        from repro.core import DensityBiasedSampler

        stream = CsvFileStream(csv_path, chunk_size=64)
        sample = DensityBiasedSampler(
            sample_size=50, exponent=1.0, random_state=0
        ).sample(None, stream=stream)
        assert 10 <= len(sample) <= 120
        assert stream.passes == 3


@pytest.fixture
def dirty_npy_path(array, tmp_path):
    """A crafted .npy whose on-disk rows contain NaN and Inf."""
    dirty = array.copy()
    dirty[5] = np.nan
    dirty[123, 1] = np.inf
    dirty[200, 0] = -np.inf
    path = os.path.join(tmp_path, "dirty.npy")
    np.save(path, dirty)
    return path


class TestFileStreamHardening:
    """Regression: on-disk NaN/Inf rows used to bypass stream validation
    and reach the samplers unchecked; file streams now route every chunk
    through the same RowQuarantine policy as the in-memory stream."""

    def test_npy_nan_raises_under_default_strict(self, dirty_npy_path):
        stream = NpyFileStream(dirty_npy_path, chunk_size=100)
        with pytest.raises(DataValidationError) as excinfo:
            list(stream)
        message = str(excinfo.value)
        assert "pass 1" in message
        assert "chunk offset 0" in message

    def test_npy_strict_error_names_offending_chunk(self, dirty_npy_path):
        # Rows 123 and 200 are in the second and third 100-row chunks;
        # consuming chunks lazily pins the error to the right offset.
        stream = NpyFileStream(dirty_npy_path, chunk_size=100)
        iterator = stream.iter_with_offsets()
        with pytest.raises(DataValidationError, match="chunk offset 0"):
            next(iterator)

    def test_npy_quarantine_drops_and_counts(self, dirty_npy_path):
        from repro.obs import Recorder, use_recorder

        recorder = Recorder()
        with use_recorder(recorder):
            stream = NpyFileStream(
                dirty_npy_path, chunk_size=100, fault_policy="quarantine"
            )
            out = stream.materialize()
        assert stream.n_points == 257 - 3
        assert out.shape == (254, 3)
        assert np.isfinite(out).all()
        assert recorder.counters["rows_quarantined"] == 3

    def test_npy_quarantine_offsets_compacted(self, dirty_npy_path):
        stream = NpyFileStream(
            dirty_npy_path, chunk_size=100, fault_policy="quarantine"
        )
        offsets, lengths = [], []
        for offset, chunk in stream.iter_with_offsets():
            offsets.append(offset)
            lengths.append(chunk.shape[0])
        assert offsets == [0, 99, 198]
        assert sum(lengths) == stream.n_points

    def test_npy_repair_imputes(self, dirty_npy_path, array):
        stream = NpyFileStream(
            dirty_npy_path, chunk_size=100, fault_policy="repair"
        )
        out = stream.materialize()
        assert out.shape == array.shape
        assert np.isfinite(out).all()
        # Untouched rows pass through bit-exactly.
        np.testing.assert_array_equal(out[0], array[0])

    def test_npy_sampler_never_sees_dirty_rows(self, dirty_npy_path):
        from repro.core import DensityBiasedSampler

        stream = NpyFileStream(
            dirty_npy_path, chunk_size=64, fault_policy="quarantine"
        )
        sample = DensityBiasedSampler(
            sample_size=50, exponent=1.0, random_state=0
        ).sample(None, stream=stream)
        assert np.isfinite(sample.points).all()
        assert sample.n_source == stream.n_points

    def test_npy_binds_ambient_policy(self, dirty_npy_path):
        with use_fault_policy("quarantine"):
            stream = NpyFileStream(dirty_npy_path, chunk_size=100)
        assert stream.fault_policy.mode == "quarantine"
        assert stream.n_points == 254

    def test_npy_max_abs_quarantines_finite_garbage(self, array, tmp_path):
        dirty = array.copy()
        dirty[17, 2] = 1e30  # finite but absurd: a bit-flip lookalike
        path = os.path.join(tmp_path, "garbage.npy")
        np.save(path, dirty)
        stream = NpyFileStream(
            path,
            chunk_size=100,
            fault_policy=RowQuarantine("quarantine", max_abs=1e9),
        )
        assert stream.n_points == 256
        assert (np.abs(stream.materialize()) <= 1e9).all()

    def test_csv_non_numeric_quarantined(self, tmp_path):
        path = os.path.join(tmp_path, "text.csv")
        with open(path, "w") as handle:
            handle.write("1.0,2.0\n3.0,abc\n5.0,6.0\n")
        stream = CsvFileStream(path, fault_policy="quarantine")
        assert stream.n_points == 2
        np.testing.assert_allclose(
            stream.materialize(), [[1.0, 2.0], [5.0, 6.0]]
        )

    def test_csv_non_numeric_repaired(self, tmp_path):
        path = os.path.join(tmp_path, "text.csv")
        with open(path, "w") as handle:
            handle.write("1.0,2.0\n3.0,abc\n5.0,6.0\n")
        stream = CsvFileStream(path, fault_policy="repair")
        out = stream.materialize()
        assert out.shape == (3, 2)
        assert out[1, 1] == pytest.approx(4.0)  # mean of 2.0 and 6.0

    def test_csv_nan_literal_quarantined(self, tmp_path):
        # float('nan') parses fine, so this exercises the value check
        # rather than the parse fallback.
        path = os.path.join(tmp_path, "nan.csv")
        with open(path, "w") as handle:
            handle.write("1.0,2.0\nnan,4.0\n5.0,6.0\n")
        with pytest.raises(DataValidationError, match="chunk offset"):
            list(CsvFileStream(path))
        stream = CsvFileStream(path, fault_policy="quarantine")
        assert stream.n_points == 2

    def test_open_error_propagates_unchanged(self, csv_path):
        # A file that disappears between passes surfaces the file
        # system's own error: nothing retries or wraps it.
        stream = CsvFileStream(csv_path)
        os.remove(csv_path)
        with pytest.raises(FileNotFoundError):
            stream.materialize()


class TestCsvTrailingBuffer:
    """The `_raw_chunks` trailing-buffer boundary: every layout of the
    final chunk must give the same row count as `materialize()`."""

    def _write(self, tmp_path, n_rows, trailer=""):
        rows = np.arange(n_rows * 2, dtype=float).reshape(n_rows, 2)
        path = os.path.join(tmp_path, f"rows{n_rows}.csv")
        with open(path, "w") as handle:
            for row in rows:
                handle.write(f"{row[0]},{row[1]}\n")
            handle.write(trailer)
        return path, rows

    @pytest.mark.parametrize("n_rows", [9, 10, 11, 19, 20, 21, 1])
    def test_partial_final_buffer_counts_match(self, tmp_path, n_rows):
        path, rows = self._write(tmp_path, n_rows)
        stream = CsvFileStream(path, chunk_size=10)
        assert stream.n_points == n_rows
        assert stream.materialize().shape[0] == n_rows
        np.testing.assert_array_equal(stream.materialize(), rows)

    @pytest.mark.parametrize("trailer", ["\n", "\n\n\n", "   \n\n"])
    def test_trailing_blank_lines_do_not_add_rows(self, tmp_path, trailer):
        path, rows = self._write(tmp_path, 10, trailer=trailer)
        stream = CsvFileStream(path, chunk_size=4)
        assert stream.n_points == 10
        np.testing.assert_array_equal(stream.materialize(), rows)

    def test_exact_multiple_of_chunk_size(self, tmp_path):
        path, rows = self._write(tmp_path, 12)
        stream = CsvFileStream(path, chunk_size=4)
        chunks = list(stream)
        assert [c.shape[0] for c in chunks] == [4, 4, 4]
        assert sum(c.shape[0] for c in chunks) == stream.n_points
        np.testing.assert_array_equal(np.vstack(chunks), rows)

    def test_no_trailing_newline(self, tmp_path):
        path = os.path.join(tmp_path, "nonewline.csv")
        with open(path, "w") as handle:
            handle.write("1.0,2.0\n3.0,4.0\n5.0,6.0")
        stream = CsvFileStream(path, chunk_size=2)
        assert stream.n_points == 3
        assert stream.materialize().shape == (3, 2)


class TestShardSupportApi:
    """chunk_sizes() / iter_chunk_range() agree with full iteration."""

    @pytest.mark.parametrize("kind", ["npy", "csv"])
    def test_chunk_sizes_match_iteration(self, kind, npy_path, csv_path):
        path = npy_path if kind == "npy" else csv_path
        cls = NpyFileStream if kind == "npy" else CsvFileStream
        stream = cls(path, chunk_size=50)
        sizes = stream.chunk_sizes()
        assert sum(sizes) == stream.n_points
        assert list(sizes) == [c.shape[0] for c in stream]

    @pytest.mark.parametrize("kind", ["npy", "csv"])
    def test_iter_chunk_range_is_a_slice_of_the_pass(
        self, kind, npy_path, csv_path
    ):
        path = npy_path if kind == "npy" else csv_path
        cls = NpyFileStream if kind == "npy" else CsvFileStream
        stream = cls(path, chunk_size=50)
        full = list(stream.iter_with_offsets())
        got = list(stream.iter_chunk_range(1, 4))
        assert [start for start, _ in got] == [start for start, _ in full[1:4]]
        for (_, expected), (_, actual) in zip(full[1:4], got):
            np.testing.assert_array_equal(expected, actual)

    @pytest.mark.parametrize("kind", ["npy", "csv"])
    def test_iter_chunk_range_under_quarantine(self, kind, tmp_path, array):
        dirty = array.copy()
        dirty[10, 0] = np.nan
        dirty[120, 1] = np.inf
        if kind == "npy":
            path = os.path.join(tmp_path, "dirty.npy")
            np.save(path, dirty)
            cls = NpyFileStream
        else:
            path = os.path.join(tmp_path, "dirty.csv")
            np.savetxt(path, dirty, delimiter=",")
            cls = CsvFileStream
        stream = cls(path, chunk_size=50, fault_policy="quarantine")
        full = list(stream.iter_with_offsets())
        n_chunks = len(stream.chunk_sizes())
        got = list(stream.iter_chunk_range(0, n_chunks))
        assert [s for s, _ in got] == [s for s, _ in full]
        for (_, expected), (_, actual) in zip(full, got):
            np.testing.assert_array_equal(expected, actual)

    def test_npy_stream_pickles_and_reopens(self, npy_path, array):
        import pickle

        stream = NpyFileStream(npy_path, chunk_size=64)
        clone = pickle.loads(pickle.dumps(stream))
        np.testing.assert_array_equal(clone.materialize(), array)
        np.testing.assert_array_equal(
            np.vstack(list(clone)), np.vstack(list(stream))
        )
