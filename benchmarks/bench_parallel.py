"""Benchmarks for the parallel backend and the vectorised reservoir.

Two claims are guarded here:

* the Algorithm-L reservoir (geometric skips, chunk-vectorised fill)
  beats a per-row Algorithm-R loop by an order of magnitude on a
  200k-row stream;
* the eval scan — the scan runner fanning the serial KDE evaluate out
  over stream chunks — is byte-identical to the serial scan for any
  worker count, and — on machines that actually have the cores —
  faster at ``n_jobs=4``.

The speedup assertions are gated on ``os.cpu_count()``: a single-core
container can demonstrate the determinism contract but not the
parallelism, and a wall-time assertion there would only measure
scheduler noise.
"""

import os
import time

import numpy as np
import pytest

from repro.density import KernelDensityEstimator
from repro.density.reservoir import ReservoirSampler
from repro.parallel import use_n_jobs
from repro.sharding import SHARD_EVAL_PHASE, ShardPlan, shard_map
from repro.utils.streams import DataStream

N_ROWS = 200_000
CHUNK = 8_192


@pytest.fixture(scope="module")
def stream_chunks():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(N_ROWS, 2))
    return [data[start : start + CHUNK] for start in range(0, N_ROWS, CHUNK)]


def _per_row_algorithm_r(chunks, capacity, seed):
    """Reference implementation: the classic one-draw-per-row loop the
    vectorised sampler replaced."""
    rng = np.random.default_rng(seed)
    reservoir = []
    seen = 0
    for chunk in chunks:
        for row in chunk:
            if seen < capacity:
                reservoir.append(row)
            else:
                slot = int(rng.integers(0, seen + 1))
                if slot < capacity:
                    reservoir[slot] = row
            seen += 1
    return np.asarray(reservoir)


def test_reservoir_vectorised_200k(benchmark, stream_chunks):
    def run():
        sampler = ReservoirSampler(1000, random_state=0)
        for chunk in stream_chunks:
            sampler.extend(chunk)
        return sampler.sample

    result = benchmark(run)
    assert result.shape == (1000, 2)


def test_reservoir_beats_per_row_loop(stream_chunks):
    """The acceptance bound: >= 10x over the per-row loop on 200k rows."""

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def vectorised():
        sampler = ReservoirSampler(1000, random_state=0)
        for chunk in stream_chunks:
            sampler.extend(chunk)
        return sampler.sample

    vectorised()  # warm-up: first call pays numpy dispatch setup
    loop_time = timed(lambda: _per_row_algorithm_r(stream_chunks, 1000, 0))
    vec_time = max(min(timed(vectorised) for _ in range(3)), 1e-9)
    assert loop_time / vec_time >= 10.0, (
        f"vectorised reservoir only {loop_time / vec_time:.1f}x faster "
        f"({vec_time:.3f}s vs {loop_time:.3f}s loop)"
    )


@pytest.fixture(scope="module")
def fitted_kde(stream_chunks):
    data = np.vstack(stream_chunks)
    return KernelDensityEstimator(n_kernels=1000, random_state=0).fit(data)


def _eval_scan(kde, queries, n_jobs):
    """One unsharded eval scan of ``queries`` in ``CHUNK``-row chunks."""
    plan = ShardPlan(DataStream(queries, chunk_size=CHUNK), 1)
    with use_n_jobs(n_jobs):
        values = shard_map(
            plan, kde.evaluate, phase=SHARD_EVAL_PHASE, row_local=True
        )
    return np.concatenate(values)


def test_kde_parallel_matches_serial(fitted_kde, stream_chunks):
    """Determinism contract: identical densities for any n_jobs."""
    queries = np.vstack(stream_chunks[:8])
    np.testing.assert_array_equal(
        _eval_scan(fitted_kde, queries, 1), _eval_scan(fitted_kde, queries, 4)
    )


def test_kde_evaluate_parallel_4_jobs(benchmark, fitted_kde, stream_chunks):
    queries = np.vstack(stream_chunks[:8])
    result = benchmark(lambda: _eval_scan(fitted_kde, queries, 4))
    assert result.shape == (queries.shape[0],)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >= 4 cores; this machine cannot show it",
)
def test_kde_parallel_speedup(fitted_kde, stream_chunks):
    """On a real multicore machine, 4 workers must halve the wall time."""
    queries = np.vstack(stream_chunks[:8])

    def timed(n_jobs):
        _eval_scan(fitted_kde, queries, n_jobs)  # warm-up
        start = time.perf_counter()
        _eval_scan(fitted_kde, queries, n_jobs)
        return time.perf_counter() - start

    serial_time = timed(1)
    parallel_time = timed(4)
    assert serial_time / parallel_time >= 2.0, (
        f"n_jobs=4 only {serial_time / parallel_time:.2f}x faster "
        f"({parallel_time:.3f}s vs {serial_time:.3f}s serial)"
    )
