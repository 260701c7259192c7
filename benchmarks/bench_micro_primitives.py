"""Microbenchmarks for the library's hot primitives.

Unlike the per-figure experiment benches (single-shot pipelines), these
run many rounds and guard the constants the experiments rely on:
density evaluation throughput, sampling passes, CURE merges, CF-tree
insertion, and the exact outlier detectors.

Every benchmark runs through ``benchmark.pedantic`` with an explicit
``warmup_rounds`` so the first (cold, allocation-heavy) call never
lands in the timed statistics, and the regression gate
(``tools/bench_gate.py``) compares *medians*, which a stray slow round
cannot drag the way it drags a mean.
"""

import statistics
import time

import numpy as np
import pytest

from repro.clustering import Birch, CureClustering
from repro.core import DensityBiasedSampler
from repro.density import KernelDensityEstimator, TreeDensityEstimator
from repro.outliers import IndexedOutlierDetector

#: Dataset size for the tree-vs-KDE density-evaluation speedup bench.
N_SPEEDUP = 200_000

#: Required median speedup of the tree backend over the KDE at
#: ``N_SPEEDUP`` evaluation points. The KDE computes only the pairs
#: inside its kernel's compact support, so the ratio is smaller than
#: against a dense kernel sum; the tree's own time is gated separately
#: in ``BENCH_micro.json``.
DENSITY_SPEEDUP_FLOOR = 2.0

#: Ceiling on the tree backend's median fit time at ``N_SPEEDUP`` rows,
#: as a multiple of one evaluation of the same rows. The fit is two
#: scans that route rows through the same overlay tables evaluation
#: uses, so it should cost about two evaluations.
TREE_FIT_EVAL_CEILING = 3.0


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(0)
    return np.vstack(
        [
            rng.normal((0.3, 0.3), 0.05, size=(20_000, 2)),
            rng.uniform(0.0, 1.0, size=(20_000, 2)),
        ]
    )


@pytest.fixture(scope="module")
def fitted_kde(dataset):
    return KernelDensityEstimator(n_kernels=1000, random_state=0).fit(dataset)


@pytest.fixture(scope="module")
def speedup_case():
    """A 200k-point mixture with both density backends pre-fitted."""
    rng = np.random.default_rng(7)
    data = np.vstack(
        [
            rng.normal((0.3, 0.3), 0.05, size=(N_SPEEDUP // 2, 2)),
            rng.uniform(0.0, 1.0, size=(N_SPEEDUP // 2, 2)),
        ]
    )
    kde = KernelDensityEstimator(n_kernels=1000, random_state=0).fit(data)
    tree = TreeDensityEstimator(random_state=0).fit(data)
    return data, kde, tree


def test_kde_fit(benchmark, dataset):
    benchmark.pedantic(
        lambda: KernelDensityEstimator(
            n_kernels=1000, random_state=0
        ).fit(dataset),
        warmup_rounds=1,
        rounds=5,
        iterations=1,
    )


def test_kde_evaluate_10k(benchmark, fitted_kde, dataset):
    queries = dataset[:10_000]
    result = benchmark.pedantic(
        lambda: fitted_kde.evaluate(queries),
        warmup_rounds=1,
        rounds=5,
        iterations=1,
    )
    assert result.shape == (10_000,)


def test_tree_evaluate_200k(benchmark, speedup_case):
    """Tree-backend density evaluation at n=200k: the gate entry that
    pins the >=2x speedup over the kernel backend.

    The KDE reference is re-timed in the same process (median of three
    warm rounds) rather than read from another benchmark's stats, so
    the asserted ratio always compares the same machine state; both
    medians and the ratio are recorded in the JSON via ``extra_info``.
    """
    data, kde, tree = speedup_case
    kde.evaluate(data[:2_048])
    kde_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        kde.evaluate(data)
        kde_rounds.append(time.perf_counter() - start)
    kde_median = statistics.median(kde_rounds)
    result = benchmark.pedantic(
        lambda: tree.evaluate(data),
        warmup_rounds=1,
        rounds=5,
        iterations=1,
    )
    assert result.shape == (N_SPEEDUP,)
    tree_median = benchmark.stats.stats.median
    benchmark.extra_info["kde_median_seconds"] = kde_median
    benchmark.extra_info["speedup_vs_kde"] = kde_median / tree_median
    assert kde_median / tree_median >= DENSITY_SPEEDUP_FLOOR


def test_tree_fit_200k(benchmark, speedup_case):
    """Tree-backend fit at n=200k: the gate entry that pins the fit's
    cost at most ``TREE_FIT_EVAL_CEILING`` evaluations of the same rows.

    The evaluation reference is re-timed in the same process (median of
    three warm rounds), so the ratio compares the same machine state;
    both are recorded in the JSON via ``extra_info``.
    """
    data, _kde, tree = speedup_case
    tree.evaluate(data[:2_048])
    eval_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        tree.evaluate(data)
        eval_rounds.append(time.perf_counter() - start)
    eval_median = statistics.median(eval_rounds)
    fitted = benchmark.pedantic(
        lambda: TreeDensityEstimator(random_state=0).fit(data),
        warmup_rounds=1,
        rounds=5,
        iterations=1,
    )
    assert fitted.counts_.tobytes() == tree.counts_.tobytes()
    fit_median = benchmark.stats.stats.median
    benchmark.extra_info["eval_median_seconds"] = eval_median
    benchmark.extra_info["fit_over_eval"] = fit_median / eval_median
    assert fit_median / eval_median <= TREE_FIT_EVAL_CEILING


def test_biased_sampling_end_to_end(benchmark, dataset, fitted_kde):
    def draw():
        return DensityBiasedSampler(
            sample_size=500,
            exponent=1.0,
            estimator=fitted_kde,
            random_state=0,
        ).sample(dataset)

    sample = benchmark.pedantic(
        draw, warmup_rounds=1, rounds=5, iterations=1
    )
    assert 300 < len(sample) < 700


def test_cure_1000_points(benchmark, dataset):
    pts = dataset[:1000]
    result = benchmark.pedantic(
        lambda: CureClustering(n_clusters=10).fit(pts),
        warmup_rounds=1,
        rounds=3,
        iterations=1,
    )
    assert result.n_clusters == 10


def test_birch_insertion_10k(benchmark, dataset):
    pts = dataset[:10_000]
    result = benchmark.pedantic(
        lambda: Birch(n_clusters=10, max_leaf_entries=400).fit(pts),
        warmup_rounds=1,
        rounds=3,
        iterations=1,
    )
    assert result.n_clusters == 10


def test_indexed_outliers_20k(benchmark, dataset):
    pts = dataset[:20_000]
    result = benchmark.pedantic(
        lambda: IndexedOutlierDetector(k=0.01, p=1).detect(pts),
        warmup_rounds=1,
        rounds=3,
        iterations=1,
    )
    assert result.n_candidates == 20_000
