"""Statistical-oracle and determinism suite for the tree estimator.

Two layers:

* **Oracle** — on the paper's fig. 3 (CURE dataset 1) and fig. 5
  mixtures, the forest's density field must agree with the *exact* KDE
  (every dataset point a kernel center): relative L1 error within a
  fixed bound and Spearman rank correlation of the density orderings
  at or above 0.95. The exact KDE is the right reference — a
  subsampled 1000-center KDE carries sampling noise of its own (two
  such KDEs with different seeds agree at only ~0.89 on fig. 3).
* **Determinism** — fits and evaluations are byte-identical across
  worker counts and shard counts, because every fold in the fit is
  exact integer/min/max algebra.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets.cure_dataset import cure_dataset1
from repro.datasets.synthetic import make_fig5_dataset
from repro.density import KernelDensityEstimator, TreeDensityEstimator
from repro.density.tree import tree_leaf_indices
from repro.exceptions import (
    DataValidationError,
    NotFittedError,
    ParameterError,
)
from repro.obs import Recorder, use_recorder
from repro.parallel import use_n_jobs
from repro.sharding import use_shards
from repro.utils.streams import DataStream

N_ORACLE = 20_000
N_QUERIES = 4_000
RANK_CORR_FLOOR = 0.95
L1_CEILING = 0.25


def _rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation of two density orderings."""
    ranks_a = np.argsort(np.argsort(a))
    ranks_b = np.argsort(np.argsort(b))
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


def _oracle_case(points: np.ndarray) -> dict:
    rng = np.random.default_rng(7)
    queries = points[
        rng.choice(points.shape[0], N_QUERIES, replace=False)
    ]
    exact = KernelDensityEstimator(
        n_kernels=points.shape[0], random_state=0
    ).fit(points)
    tree = TreeDensityEstimator(random_state=0).fit(points)
    return {
        "points": points,
        "queries": queries,
        "exact": exact.evaluate(queries),
        "tree": tree.evaluate(queries),
    }


@pytest.fixture(scope="module")
def fig3_case():
    return _oracle_case(
        cure_dataset1(n_points=N_ORACLE, random_state=0).points
    )


@pytest.fixture(scope="module")
def fig5_case():
    return _oracle_case(
        make_fig5_dataset(n_points=N_ORACLE, random_state=0).points
    )


class TestStatisticalOracle:
    def test_fig3_rank_correlation(self, fig3_case):
        corr = _rank_correlation(fig3_case["tree"], fig3_case["exact"])
        assert corr >= RANK_CORR_FLOOR

    def test_fig5_rank_correlation(self, fig5_case):
        corr = _rank_correlation(fig5_case["tree"], fig5_case["exact"])
        assert corr >= RANK_CORR_FLOOR

    def test_fig3_l1_error(self, fig3_case):
        exact = fig3_case["exact"]
        err = np.abs(fig3_case["tree"] - exact).sum() / exact.sum()
        assert err <= L1_CEILING

    def test_fig5_l1_error(self, fig5_case):
        exact = fig5_case["exact"]
        err = np.abs(fig5_case["tree"] - exact).sum() / exact.sum()
        assert err <= L1_CEILING

    def test_densities_nonnegative_and_finite(self, fig3_case):
        values = fig3_case["tree"]
        assert np.isfinite(values).all()
        assert (values >= 0.0).all()

    def test_total_mass_matches_dataset(self, fig3_case):
        # Densities integrate to n over the domain: summing
        # rate * leaf_volume over any one tree recovers n exactly.
        est = TreeDensityEstimator(random_state=0).fit(
            fig3_case["points"]
        )
        masses = (est.rate_ * est.leaf_volumes_).sum(axis=1)
        assert masses == pytest.approx(
            np.full(est.n_trees, est.n_points_)
        )


def _fit_eval(points, queries, n_jobs, shards):
    with use_n_jobs(n_jobs), use_shards(shards):
        estimator = TreeDensityEstimator(random_state=0)
        estimator.fit(stream=DataStream(points, chunk_size=1024))
        return estimator, estimator.evaluate(queries)


def _assert_same_bytes(estimator, values, baseline, densities):
    for name in ("features_", "thresholds_", "counts_", "rate_"):
        assert (
            getattr(estimator, name).tobytes()
            == getattr(baseline, name).tobytes()
        ), name
    assert values.tobytes() == densities.tobytes()


def _descent_counts(estimator, data):
    """Leaf counts routed by the level-by-level descent, per tree."""
    leaves = tree_leaf_indices(
        data, estimator.features_, estimator.thresholds_
    )
    return np.stack(
        [
            np.bincount(leaves[t], minlength=estimator.n_leaves_)
            for t in range(estimator.n_trees)
        ]
    )


def _descent_values(estimator, queries):
    """Densities routed by the descent, summed over trees in tree order."""
    leaves = tree_leaf_indices(
        queries, estimator.features_, estimator.thresholds_
    )
    expected = np.zeros(queries.shape[0])
    for t in range(estimator.n_trees):
        expected += estimator.rate_[t][leaves[t]]
    expected /= estimator.n_trees
    return expected


def _byte_case(n_dims):
    rng = np.random.default_rng(3)
    points = rng.normal(size=(8_000, n_dims))
    queries = rng.normal(size=(500, n_dims))
    baseline, densities = _fit_eval(points, queries, 1, 1)
    return points, queries, baseline, densities


class TestByteEquivalence:
    """Same bytes for every (n_jobs, shards) execution shape."""

    @pytest.fixture(scope="class")
    def case(self):
        # d=3 at the default forest size is above the overlay cell cap,
        # so this case pins the descent fallback.
        return _byte_case(3)

    @pytest.fixture(scope="class")
    def planar_case(self):
        # d=2 routes fit and eval through the overlay tables.
        return _byte_case(2)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_fit_and_eval_bytes(self, case, n_jobs, shards):
        points, queries, baseline, densities = case
        estimator, values = _fit_eval(points, queries, n_jobs, shards)
        _assert_same_bytes(estimator, values, baseline, densities)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("planar", [True, False], ids=["d2", "d3"])
    def test_fit_and_eval_bytes_backends(
        self, case, planar_case, planar, backend, monkeypatch
    ):
        # Under the process backend each shard's counting task reaches
        # its worker pickled: the overlay tables at d=2, the bare
        # forest (descent fallback) at d=3.
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", backend)
        points, queries, baseline, densities = (
            planar_case if planar else case
        )
        estimator, values = _fit_eval(points, queries, 2, 3)
        assert (estimator._tables is not None) == planar
        _assert_same_bytes(estimator, values, baseline, densities)

    def test_seed_determinism(self, case):
        points, queries, baseline, _ = case
        again = TreeDensityEstimator(random_state=0).fit(points)
        assert again.counts_.tobytes() == baseline.counts_.tobytes()
        other = TreeDensityEstimator(random_state=1).fit(points)
        assert (
            other.thresholds_.tobytes() != baseline.thresholds_.tobytes()
        )


class TestFitting:
    def test_two_passes_by_default(self):
        stream = DataStream(np.random.default_rng(0).random((500, 2)))
        TreeDensityEstimator(random_state=0).fit(stream=stream)
        assert stream.passes == 2

    def test_explicit_bounds_skip_the_bounds_pass(self):
        stream = DataStream(np.random.default_rng(0).random((500, 2)))
        TreeDensityEstimator(
            bounds=([0.0, 0.0], [1.0, 1.0]), random_state=0
        ).fit(stream=stream)
        assert stream.passes == 1

    def test_empty_stream_raises(self):
        with pytest.raises(DataValidationError, match="at least 1"):
            TreeDensityEstimator(random_state=0).fit(
                np.empty((0, 2))
            )

    @pytest.mark.parametrize(
        "bounds, located",
        [
            (([0.0, 0.0], [np.inf, 1.0]), r"maxs\[0\] is inf"),
            (([0.0, np.nan], [1.0, 1.0]), r"mins\[1\] is nan"),
        ],
    )
    def test_non_finite_bounds_raise_located_error(self, bounds, located):
        data = np.random.default_rng(0).random((100, 2))
        with pytest.raises(ParameterError, match=located):
            TreeDensityEstimator(bounds=bounds, random_state=0).fit(data)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            TreeDensityEstimator().evaluate([[0.0, 0.0]])

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError, match="n_trees"):
            TreeDensityEstimator(n_trees=0)
        with pytest.raises(ParameterError, match="max_depth"):
            TreeDensityEstimator(max_depth=0)

    def test_degenerate_dimension_survives(self):
        # A constant column would produce zero-volume leaves without
        # the build-time padding; densities must stay finite.
        rng = np.random.default_rng(2)
        data = np.column_stack(
            [rng.normal(size=400), np.full(400, 3.5)]
        )
        estimator = TreeDensityEstimator(random_state=0).fit(data)
        values = estimator.evaluate(data[:50])
        assert np.isfinite(values).all()

    def test_leaf_volumes_positive(self):
        rng = np.random.default_rng(4)
        estimator = TreeDensityEstimator(random_state=0).fit(
            rng.normal(size=(2_000, 2))
        )
        assert (estimator.leaf_volumes_ > 0.0).all()

    def test_counts_cover_every_point(self):
        rng = np.random.default_rng(5)
        estimator = TreeDensityEstimator(random_state=0).fit(
            rng.normal(size=(1_500, 2))
        )
        assert (estimator.counts_.sum(axis=1) == 1_500).all()


class TestLeafRouting:
    def test_routes_match_manual_descent(self):
        rng = np.random.default_rng(6)
        estimator = TreeDensityEstimator(
            n_trees=4, max_depth=3, random_state=0
        ).fit(rng.normal(size=(1_000, 2)))
        points = rng.normal(size=(32, 2))
        leaves = tree_leaf_indices(
            points, estimator.features_, estimator.thresholds_
        )
        n_internal = estimator.features_.shape[1]
        for t in range(4):
            for i, x in enumerate(points):
                node = 0
                while node < n_internal:
                    feature = estimator.features_[t, node]
                    threshold = estimator.thresholds_[t, node]
                    node = 2 * node + 1 + int(x[feature] > threshold)
                assert leaves[t, i] == node - n_internal


def _normal_case(n_dims, max_depth=8):
    def build():
        data = np.random.default_rng(20 + n_dims).normal(
            size=(6_000, n_dims)
        )
        return {"max_depth": max_depth}, data

    return build


def _rows_on_thresholds():
    # With explicit bounds the forest does not depend on the data, so
    # the fit on rows placed exactly on a probe fit's split thresholds
    # draws the same trees; ties must go left in the table route too.
    bounds = ([0.0, 0.0], [1.0, 1.0])
    rng = np.random.default_rng(21)
    probe = TreeDensityEstimator(bounds=bounds, random_state=0).fit(
        rng.random((100, 2))
    )
    data = rng.random((4_000, 2))
    for t in range(8):
        for j in range(2):
            on_dim = probe.features_[t] == j
            rows = rng.choice(data.shape[0], on_dim.sum(), replace=False)
            data[rows, j] = probe.thresholds_[t][on_dim]
    return {"bounds": bounds}, data


def _rows_outside_bounds():
    # Bounds narrower than the data: rows outside the box clamp to the
    # edge leaves on both routes.
    data = np.random.default_rng(22).normal(scale=2.0, size=(5_000, 2))
    return {"bounds": ([-1.0, -0.5], [1.0, 0.5])}, data


def _constant_column():
    rng = np.random.default_rng(23)
    return {}, np.column_stack([rng.normal(size=3_000), np.full(3_000, 3.5)])


#: Fits whose overlay-routed counts must equal a descent-routed count.
_COUNT_CASES = {
    "d1": _normal_case(1),
    "d2": _normal_case(2),
    # d=3 needs a shallower forest to stay under the cell cap.
    "d3": _normal_case(3, max_depth=6),
    "on-thresholds": _rows_on_thresholds,
    "outside-bounds": _rows_outside_bounds,
    "constant-column": _constant_column,
}


def _edge_queries(estimator, data):
    """Query rows on the merged grid's edges and at non-finite extremes.

    Every split threshold is an edge of the merged per-dimension grid
    that all but its own tree lack, so a row placed on one must go left
    in that tree and fall between its neighbours in every other one.
    NaN compares False against every threshold (left everywhere);
    ±inf and ±1e300 lie beyond every edge.
    """
    rng = np.random.default_rng(30)
    n_dims = data.shape[1]
    rows = data[rng.choice(data.shape[0], 600, replace=False)].copy()
    for j in range(n_dims):
        on_dim = estimator.thresholds_[estimator.features_ == j]
        if on_dim.size:
            rows[:400, j] = rng.choice(on_dim, 400)
    extremes = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0])
    return np.vstack([rows, rng.choice(extremes, size=(64, n_dims))])


#: Peak traced memory of fitting the tree on the seed-0 fig5 dataset
#: (110k rows) and of evaluating its first 100k rows, measured with the
#: per-tree bin tables the merged grid replaced. Neither may grow.
FIT_PEAK_MIB = 19.44
EVAL_PEAK_MIB = 20.77


class TestOverlayTables:
    """The lookup tables route bit-identically to the descent."""

    @pytest.mark.parametrize("case", sorted(_COUNT_CASES))
    def test_counts_match_descent(self, case):
        kwargs, data = _COUNT_CASES[case]()
        est = TreeDensityEstimator(random_state=0, **kwargs).fit(
            stream=DataStream(data, chunk_size=1024)
        )
        assert est._tables is not None
        expected = _descent_counts(est, data)
        assert est.counts_.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", sorted(_COUNT_CASES))
    def test_evaluation_matches_descent(self, case):
        kwargs, data = _COUNT_CASES[case]()
        est = TreeDensityEstimator(random_state=0, **kwargs).fit(data)
        assert est._tables is not None
        queries = _edge_queries(est, data)
        expected = _descent_values(est, queries).tobytes()
        assert est._evaluate_cells(queries).tobytes() == expected
        assert est.evaluate(queries).tobytes() == expected

    def test_fit_and_evaluate_memory_do_not_grow(self):
        data = make_fig5_dataset(n_points=100_000, random_state=0).points
        tracemalloc.start()
        try:
            est = TreeDensityEstimator(random_state=0).fit(data)
            fit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            est.evaluate(data[:100_000])
            eval_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit_peak <= FIT_PEAK_MIB * 2**20
        assert eval_peak <= EVAL_PEAK_MIB * 2**20

    def test_table_route_matches_descent_bytes(self):
        rng = np.random.default_rng(11)
        est = TreeDensityEstimator(random_state=0).fit(
            rng.normal(size=(5_000, 2))
        )
        assert est._tables is not None
        queries = rng.normal(scale=2.0, size=(3_000, 2))
        # Queries exactly on split thresholds exercise the tie-routing
        # corner (<= goes left) the table route must reproduce.
        queries[:64, 0] = est.thresholds_[0][:64]
        actual = est._evaluate_cells(queries)
        assert actual.tobytes() == _descent_values(est, queries).tobytes()

    def test_high_dim_falls_back_to_descent(self):
        # At d=4 the per-dim threshold cross product blows past the
        # cell cap; the overlay is skipped and both the counting scan
        # and eval use the descent.
        rng = np.random.default_rng(12)
        data = rng.normal(size=(2_000, 4))
        est = TreeDensityEstimator(random_state=0).fit(data)
        assert est._tables is None
        expected = _descent_counts(est, data)
        assert est.counts_.tobytes() == expected.tobytes()
        values = est.evaluate(rng.normal(size=(100, 4)))
        assert np.isfinite(values).all()
        assert (values >= 0.0).all()


class TestObservability:
    def test_counters(self):
        rng = np.random.default_rng(8)
        recorder = Recorder()
        with use_recorder(recorder):
            estimator = TreeDensityEstimator(
                n_trees=8, max_depth=4, random_state=0
            ).fit(rng.normal(size=(1_000, 2)))
            estimator.evaluate(rng.normal(size=(300, 2)))
        assert recorder.counters["tree_nodes_built"] == 8 * (2**4 - 1)
        assert recorder.counters["tree_lookups"] == 300 * 8
        assert recorder.counters["data_passes"] == 2

    @pytest.mark.parametrize(
        "n_dims, route", [(2, "table"), (4, "descent")]
    )
    def test_eval_span_names_the_route(self, n_dims, route):
        # A forest above the cell cap evaluates by descent, several
        # times slower; the span says which route ran.
        rng = np.random.default_rng(9)
        estimator = TreeDensityEstimator(random_state=0).fit(
            rng.normal(size=(1_000, n_dims))
        )
        recorder = Recorder()
        with use_recorder(recorder):
            estimator.evaluate(rng.normal(size=(50, n_dims)))
        (span,) = [s for s in recorder.spans if s.name == "tree_eval_block"]
        assert span.attrs["route"] == route
