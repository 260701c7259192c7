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

import copy
import statistics
import time
import types

import numpy as np
import pytest

from repro.clustering import Birch, CureClustering, assign_to_clusters
from repro.clustering.base import ClusteringResult
from repro.core import DensityBiasedSampler
from repro.datasets import make_outlier_dataset
from repro.density import KernelDensityEstimator, TreeDensityEstimator
from repro.density.base import DensityEstimator
from repro.outliers import ApproximateOutlierDetector, IndexedOutlierDetector
from repro.utils.geometry import count_within, pair_sq_distances
from repro.utils.streams import DataStream

#: Dataset size for the tree-vs-KDE density-evaluation speedup bench.
N_SPEEDUP = 200_000

#: Required median speedup of the tree backend's table route over its
#: own level-by-level descent (the fallback for forests too fine to
#: tabulate) on the same forest and the same ``N_SPEEDUP`` rows. Both
#: sides are tree code, so a faster KDE cannot erode the ratio; losing
#: the table route fails it (measured 7.5-12x). The speedup over the
#: KDE is recorded too, as information only.
DESCENT_SPEEDUP_FLOOR = 4.0

#: Required median speedup of the cell-pruned ``count_within`` over
#: the per-pair count (every distance, in 256-row blocks) on 16,384
#: outlier-dataset rows against 600 of them at the dataset's outlier
#: radius. Losing the pruning fails it (measured 5.5-5.9x).
COUNT_WITHIN_SPEEDUP_FLOOR = 3.0

#: Required median speedup of the DB(p, k) volume screen with the
#: KDE's density lower bound over the same screen with a zero bound
#: (every row evaluated) on the 25,050-row outlier dataset, in
#: 16,384-row chunks. Losing the pruning fails it (measured 11.4x
#: on a 2-vCPU host).
SCREEN_SPEEDUP_FLOOR = 2.0

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


def _median_seconds(call, rounds: int = 3) -> float:
    """Median wall time of ``rounds`` warm calls, timed in this process."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_tree_evaluate_200k(benchmark, speedup_case):
    """Tree-backend density evaluation at n=200k: the gate entry that
    pins the table route at ``DESCENT_SPEEDUP_FLOOR`` times the tree's
    own descent.

    The descent is the same estimator with its routing tables dropped,
    so it walks the same forest level by level over the same rows. It
    and the KDE are re-timed in the same process (median of three warm
    rounds), so each ratio compares the same machine state; medians
    and ratios are recorded in the JSON via ``extra_info``.
    """
    data, kde, tree = speedup_case
    descent = copy.copy(tree)
    descent._tables = None
    descent.evaluate(data[:2_048])
    descent_median = _median_seconds(lambda: descent.evaluate(data))
    kde.evaluate(data[:2_048])
    kde_median = _median_seconds(lambda: kde.evaluate(data))
    result = benchmark.pedantic(
        lambda: tree.evaluate(data),
        warmup_rounds=1,
        rounds=5,
        iterations=1,
    )
    assert result.shape == (N_SPEEDUP,)
    assert result.tobytes() == descent.evaluate(data).tobytes()
    tree_median = benchmark.stats.stats.median
    benchmark.extra_info["descent_median_seconds"] = descent_median
    benchmark.extra_info["speedup_vs_descent"] = descent_median / tree_median
    benchmark.extra_info["kde_median_seconds"] = kde_median
    benchmark.extra_info["speedup_vs_kde"] = kde_median / tree_median
    assert descent_median / tree_median >= DESCENT_SPEEDUP_FLOOR


def test_tree_fit_200k(benchmark, speedup_case):
    """Tree-backend fit at n=200k: the gate entry that pins the fit's
    cost at most ``TREE_FIT_EVAL_CEILING`` evaluations of the same rows.

    The evaluation reference is re-timed in the same process (median of
    three warm rounds), so the ratio compares the same machine state;
    both are recorded in the JSON via ``extra_info``.
    """
    data, _kde, tree = speedup_case
    tree.evaluate(data[:2_048])
    eval_median = _median_seconds(lambda: tree.evaluate(data))
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


def _per_pair_counts(centres, points, radius_sq):
    """Every (point, centre) distance, in 256-row blocks, then ``<=``."""
    counts = np.zeros(centres.shape[0], dtype=np.int64)
    for lo in range(0, points.shape[0], 256):
        dists = pair_sq_distances(points[lo : lo + 256], centres)
        counts += (dists <= radius_sq).sum(axis=0)
    return counts


def test_count_within_16k(benchmark):
    """Exact neighbour counts of 600 candidates over 16,384 rows: the
    gate entry that pins the cell-pruned ``count_within`` at
    ``COUNT_WITHIN_SPEEDUP_FLOOR`` times the per-pair count.

    The reference is re-timed in the same process (median of three
    warm rounds) and recorded in the JSON via ``extra_info``.
    """
    data = make_outlier_dataset(n_points=16_384, n_outliers=50, random_state=0)
    points = data.points
    rng = np.random.default_rng(3)
    centres = points[rng.choice(points.shape[0], 600, replace=False)]
    radius_sq = data.guaranteed_radius**2
    expected = _per_pair_counts(centres, points, radius_sq)
    reference_median = _median_seconds(
        lambda: _per_pair_counts(centres, points, radius_sq)
    )
    counts = benchmark.pedantic(
        lambda: count_within(centres, points, radius_sq),
        warmup_rounds=1,
        rounds=5,
        iterations=1,
    )
    np.testing.assert_array_equal(counts, expected)
    speedup = reference_median / benchmark.stats.stats.median
    benchmark.extra_info["per_pair_median_seconds"] = reference_median
    benchmark.extra_info["speedup_vs_per_pair"] = speedup
    assert speedup >= COUNT_WITHIN_SPEEDUP_FLOOR


def test_outlier_screen_25k(benchmark):
    """The bound-pruned outlier screen on the ``outliers-kde`` input:
    the gate entry that pins it at ``SCREEN_SPEEDUP_FLOOR`` times the
    unpruned screen.

    The unpruned screen is the same detector over a copy of the fitted
    KDE whose lower bound is the base class's zero. It is re-timed in
    the same process (median of three warm rounds) and recorded in the
    JSON via ``extra_info``.
    """
    data = make_outlier_dataset(n_points=25_000, n_outliers=50, random_state=0)
    kde = KernelDensityEstimator(n_kernels=1000, random_state=0).fit(data.points)
    unpruned = copy.copy(kde)
    unpruned.density_lower_bound = types.MethodType(
        DensityEstimator.density_lower_bound, unpruned
    )
    detector = ApproximateOutlierDetector(k=data.guaranteed_radius, p=5)

    def screen(estimator):
        stream = DataStream(data.points, chunk_size=16_384)
        return detector._screen(stream, estimator, 5)

    expected = screen(unpruned)
    unpruned_median = _median_seconds(lambda: screen(unpruned))
    indices, points = benchmark.pedantic(
        lambda: screen(kde), warmup_rounds=1, rounds=5, iterations=1
    )
    np.testing.assert_array_equal(indices, expected[0])
    np.testing.assert_array_equal(points, expected[1])
    speedup = unpruned_median / benchmark.stats.stats.median
    benchmark.extra_info["unpruned_median_seconds"] = unpruned_median
    benchmark.extra_info["speedup_vs_unpruned"] = speedup
    assert speedup >= SCREEN_SPEEDUP_FLOOR


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


def test_assign_55k_to_130_anchors(benchmark):
    """Full-data labelling at the pipeline's largest anchor count:
    13 clusters (``n_clusters + 3`` with ``n_clusters = 10``) of 10
    representatives each, 55k rows in 2-D."""
    rng = np.random.default_rng(5)
    reps = [rng.uniform(0.0, 1.0, size=(10, 2)) for _ in range(13)]
    result = ClusteringResult(
        labels=np.empty(0, dtype=np.int64),
        centers=np.array([r.mean(axis=0) for r in reps]),
        representatives=reps,
        sizes=np.full(13, 10, dtype=np.int64),
    )
    data = rng.uniform(0.0, 1.0, size=(55_000, 2))
    labels = benchmark.pedantic(
        lambda: assign_to_clusters(data, result),
        warmup_rounds=1,
        rounds=5,
        iterations=1,
    )
    assert labels.shape == (55_000,)


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
