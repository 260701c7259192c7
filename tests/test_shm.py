"""Shared-memory chunk shipping: lifecycle, fallback, crash safety.

The process backend parks large ndarray chunks in files under
``/dev/shm`` so workers map them instead of unpickling copies. The
contract under test: segments never outlive the fan-out — not on
success, not when a worker raises, not when a worker dies hard — and
when no shared-memory directory is usable the map silently falls back
to pickling with identical results.
"""

import glob
import os
import signal

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.config import use_config
from repro.parallel import (
    SharedArray,
    SharedChunks,
    parallel_map_chunks,
    resolve_chunk,
    shm_dir,
)
from repro.parallel.shm import SHM_DIR_ENV, _MIN_SHARED_BYTES

pytestmark = pytest.mark.skipif(
    shm_dir() is None, reason="no writable shared-memory directory"
)


def _leftover_segments():
    return glob.glob(os.path.join(shm_dir(), "repro-shm-*"))


def _large_chunk(seed=0):
    rows = _MIN_SHARED_BYTES // (2 * 8) + 16
    return np.random.default_rng(seed).normal(size=(rows, 2))


def _sum_chunk(chunk):
    return float(np.asarray(chunk).sum())


def _boom(chunk):
    raise RuntimeError("injected worker failure")


def _die(chunk):
    os.kill(os.getpid(), signal.SIGKILL)


class TestSharedArray:
    def test_roundtrip_bytes(self):
        chunk = _large_chunk()
        segment = SharedArray.create(chunk, shm_dir())
        try:
            view = segment.open()
            assert view.shape == chunk.shape
            assert view.dtype == chunk.dtype
            assert bytes(view.tobytes()) == chunk.tobytes()
        finally:
            segment.unlink()
        assert not os.path.exists(segment.path)

    def test_unlink_is_idempotent(self):
        segment = SharedArray.create(_large_chunk(), shm_dir())
        segment.unlink()
        segment.unlink()

    def test_resolve_chunk_passthrough(self):
        chunk = _large_chunk()
        assert resolve_chunk(chunk) is chunk
        assert resolve_chunk("not-an-array") == "not-an-array"


class TestSharedChunks:
    def test_parks_large_arrays_only(self):
        large = _large_chunk()
        small = np.zeros(4)
        with SharedChunks([large, small, "task"]) as shared:
            assert isinstance(shared.items[0], SharedArray)
            assert shared.items[1] is small
            assert shared.items[2] == "task"
            mapped = resolve_chunk(shared.items[0])
            assert mapped.tobytes() == large.tobytes()
        assert _leftover_segments() == []

    def test_disabled_passthrough(self):
        chunks = [_large_chunk()]
        with SharedChunks(chunks, enabled=False) as shared:
            assert shared.items[0] is chunks[0]
        assert _leftover_segments() == []

    def test_fallback_without_directory(self, monkeypatch):
        monkeypatch.setenv(SHM_DIR_ENV, "/nonexistent-shm-dir")
        chunks = [_large_chunk()]
        with SharedChunks(chunks) as shared:
            assert shared.items[0] is chunks[0]

    def test_exception_inside_block_releases_segments(self):
        with pytest.raises(RuntimeError, match="mid-map"):
            with SharedChunks([_large_chunk()]):
                assert len(_leftover_segments()) == 1
                raise RuntimeError("mid-map crash")
        assert _leftover_segments() == []


class TestProcessBackendIntegration:
    def test_results_match_serial(self):
        chunks = [_large_chunk(seed) for seed in range(4)]
        serial = parallel_map_chunks(_sum_chunk, chunks, n_jobs=1)
        with use_config(parallel_backend="process"):
            shipped = parallel_map_chunks(_sum_chunk, chunks, n_jobs=2)
        assert shipped == serial
        assert _leftover_segments() == []

    def test_worker_exception_releases_segments(self):
        chunks = [_large_chunk(seed) for seed in range(3)]
        with pytest.raises(RuntimeError, match="injected"), use_config(
            parallel_backend="process"
        ):
            parallel_map_chunks(_boom, chunks, n_jobs=2)
        assert _leftover_segments() == []

    def test_worker_death_releases_segments(self):
        chunks = [_large_chunk(seed) for seed in range(3)]
        with pytest.raises(BrokenProcessPool), use_config(
            parallel_backend="process"
        ):
            parallel_map_chunks(_die, chunks, n_jobs=2)
        assert _leftover_segments() == []

    def test_pickling_fallback_matches(self, monkeypatch):
        chunks = [_large_chunk(seed) for seed in range(3)]
        expected = parallel_map_chunks(_sum_chunk, chunks, n_jobs=1)
        monkeypatch.setenv(SHM_DIR_ENV, "/nonexistent-shm-dir")
        with use_config(parallel_backend="process"):
            actual = parallel_map_chunks(_sum_chunk, chunks, n_jobs=2)
        assert actual == expected


def test_no_segment_leak_across_chaos_iterations():
    """100 fan-outs with injected failures leave zero segments behind.

    Most iterations crash inside the sharing window (the coordinator
    path a dying worker exposes); every tenth runs a real process pool
    whose workers raise mid-task.
    """
    rng = np.random.default_rng(9)
    for iteration in range(100):
        chunks = [
            rng.normal(size=(_MIN_SHARED_BYTES // 8 + 8,))
            for _ in range(3)
        ]
        if iteration % 10 == 5:
            with pytest.raises(RuntimeError, match="injected"), use_config(
                parallel_backend="process"
            ):
                parallel_map_chunks(_boom, chunks, n_jobs=2)
        else:
            try:
                with SharedChunks(chunks) as shared:
                    if iteration % 3:
                        raise RuntimeError("chaos")
                    for item in shared.items:
                        resolve_chunk(item).sum()
            except RuntimeError:
                pass
        assert _leftover_segments() == [], f"leak at {iteration}"
