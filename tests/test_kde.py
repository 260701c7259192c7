"""Tests for the one-pass kernel density estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_fig5_dataset
from repro.density import KernelDensityEstimator
from repro.density import kde as kde_module
from repro.exceptions import NotFittedError, ParameterError
from repro.obs import Recorder, use_recorder
from repro.utils.streams import DataStream


@pytest.fixture
def bimodal_data():
    rng = np.random.default_rng(0)
    dense = rng.normal(0.0, 0.05, size=(3000, 2))
    sparse = rng.normal(3.0, 0.5, size=(1000, 2))
    return np.vstack([dense, sparse])


class TestFitting:
    def test_one_pass_fit(self, bimodal_data):
        stream = DataStream(bimodal_data)
        KernelDensityEstimator(n_kernels=100, random_state=0).fit(stream=stream)
        assert stream.passes == 1

    def test_records_dataset_size(self, bimodal_data):
        kde = KernelDensityEstimator(n_kernels=50, random_state=0)
        kde.fit(bimodal_data)
        assert kde.n_points_ == 4000
        assert kde.n_dims_ == 2

    def test_kernel_count_capped_by_data(self):
        kde = KernelDensityEstimator(n_kernels=100, random_state=0)
        kde.fit(np.random.default_rng(0).normal(size=(20, 2)))
        assert kde.centers_.shape[0] == 20

    def test_unfitted_evaluate_raises(self):
        with pytest.raises(NotFittedError):
            KernelDensityEstimator().evaluate([[0.0, 0.0]])

    def test_rejects_zero_kernels(self):
        with pytest.raises(ParameterError):
            KernelDensityEstimator(n_kernels=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float64_limit_data_raises_only_the_located_error(self):
        """Data near 1e300 overflows the moment squares. The fit raises
        the bandwidth rule's ParameterError naming the attribute, with
        no unlocated numpy warning first — across several chunks, so
        the chunk merge runs too."""
        data = np.random.default_rng(0).normal(size=(500, 2)) * 1e300
        stream = DataStream(data, chunk_size=100)
        with pytest.raises(ParameterError, match="attribute 0"):
            KernelDensityEstimator(n_kernels=50, random_state=0).fit(
                stream=stream
            )

    def test_deterministic_with_seed(self, bimodal_data):
        a = KernelDensityEstimator(n_kernels=64, random_state=5).fit(
            bimodal_data
        )
        b = KernelDensityEstimator(n_kernels=64, random_state=5).fit(
            bimodal_data
        )
        np.testing.assert_array_equal(a.centers_, b.centers_)


class TestEvaluation:
    def test_dense_region_denser(self, bimodal_data):
        kde = KernelDensityEstimator(n_kernels=200, random_state=0).fit(
            bimodal_data
        )
        f_dense = kde.evaluate([[0.0, 0.0]])[0]
        f_sparse = kde.evaluate([[3.0, 3.0]])[0]
        f_empty = kde.evaluate([[10.0, 10.0]])[0]
        assert f_dense > f_sparse > f_empty
        assert f_empty == 0.0  # Epanechnikov has compact support

    def test_non_negative_everywhere(self, bimodal_data):
        kde = KernelDensityEstimator(n_kernels=100, random_state=0).fit(
            bimodal_data
        )
        grid = np.random.default_rng(1).uniform(-1, 4, size=(500, 2))
        assert (kde.evaluate(grid) >= 0).all()

    def test_integrates_to_n(self):
        """Grid integration over the support should recover ~n."""
        rng = np.random.default_rng(2)
        data = rng.uniform(0.0, 1.0, size=(5000, 1))
        kde = KernelDensityEstimator(n_kernels=300, random_state=0).fit(data)
        xs = np.linspace(-0.5, 1.5, 4001).reshape(-1, 1)
        integral = np.trapezoid(kde.evaluate(xs), xs.ravel())
        assert integral == pytest.approx(5000, rel=0.05)

    def test_dimension_mismatch_raises(self, bimodal_data):
        kde = KernelDensityEstimator(n_kernels=50, random_state=0).fit(
            bimodal_data
        )
        with pytest.raises(ValueError, match="dims"):
            kde.evaluate([[0.0, 0.0, 0.0]])

    def test_1d_query_row_accepted(self, bimodal_data):
        kde = KernelDensityEstimator(n_kernels=50, random_state=0).fit(
            bimodal_data
        )
        assert kde.evaluate([0.0, 0.0]).shape == (1,)

    def test_callable_alias(self, bimodal_data):
        kde = KernelDensityEstimator(n_kernels=50, random_state=0).fit(
            bimodal_data
        )
        q = [[0.0, 0.0]]
        np.testing.assert_array_equal(kde(q), kde.evaluate(q))

    def test_chunked_evaluation_consistent(self, bimodal_data):
        """Large query batches must agree with row-by-row evaluation."""
        kde = KernelDensityEstimator(n_kernels=128, random_state=0).fit(
            bimodal_data
        )
        queries = np.random.default_rng(3).normal(size=(50, 2))
        batched = kde.evaluate(queries)
        single = np.array([kde.evaluate(q[None, :])[0] for q in queries])
        np.testing.assert_allclose(batched, single, rtol=1e-10)

    def test_gaussian_kernel_backend(self, bimodal_data):
        kde = KernelDensityEstimator(
            n_kernels=100, kernel="gaussian", random_state=0
        ).fit(bimodal_data)
        assert kde.evaluate([[0.0, 0.0]])[0] > 0


def _computed_pairs(spans) -> int:
    """Summed ``pairs`` attribute over every ``kde_eval_block`` span."""
    total = 0
    for span in spans:
        if span.name == "kde_eval_block":
            total += span.attrs["pairs"]
        total += _computed_pairs(span.children)
    return total


class TestCompactSupportPruning:
    """Evaluation computes only the pairs a compact support can reach;
    ``kernel_evals`` keeps counting every logical (row, centre) pair."""

    @pytest.fixture(scope="class")
    def fig5(self):
        return make_fig5_dataset(n_points=20_000, random_state=0).points

    @pytest.mark.parametrize("kernel", ["epanechnikov", "gaussian"])
    def test_pairs_computed(self, fig5, kernel):
        kde = KernelDensityEstimator(kernel=kernel, random_state=0).fit(fig5)
        recorder = Recorder()
        with use_recorder(recorder):
            kde.evaluate(fig5)
        logical = fig5.shape[0] * kde.n_kernels
        assert recorder.counters["kernel_evals"] == logical
        pairs = _computed_pairs(recorder.spans)
        if kernel == "gaussian":
            assert pairs == logical
        else:
            assert pairs <= 0.25 * logical

    def test_singleton_cells_merge_into_full_tiles(self, fig5):
        """One query per grid cell: consecutive one-row cells merge, so
        there are no more tiles than plain ``_EVAL_TILE_ELEMENTS // m``-row
        tiles would make."""
        kde = KernelDensityEstimator(random_state=0).fit(fig5)
        width = kde.bandwidths_ * kde.kernel.support
        # Every other cell of a 60 x 60 block of the grid.
        lattice = np.stack(np.meshgrid(np.arange(60), np.arange(60)), -1)
        queries = fig5.min(axis=0) + (2.0 * lattice.reshape(-1, 2) + 0.5) * width
        cells = np.floor(queries / width)
        assert np.unique(cells, axis=0).shape[0] == queries.shape[0]
        recorder = Recorder()
        with use_recorder(recorder):
            kde.evaluate(queries)
        (span,) = recorder.spans
        tile_rows = kde_module._EVAL_TILE_ELEMENTS // kde.centers_.shape[0]
        assert span.attrs["tiles"] <= math.ceil(queries.shape[0] / tile_rows)


KERNELS = ("epanechnikov", "gaussian", "uniform", "triangular", "biweight")


def _assert_bound_holds(kde, queries):
    """``density_lower_bound <= evaluate`` bit for bit; zero at NaN."""
    bound = kde.density_lower_bound(queries)
    values = kde.evaluate(queries)
    nan = np.isnan(values)
    assert (bound[nan] == 0.0).all()
    assert (bound[~nan] <= values[~nan]).all()
    return bound, values


def _grid_edge_rows(kde, rng, count):
    """Rows on (and one ulp either side of) the bound grid's cell edges."""
    origin, width, pad, table = kde._bound_grid_
    cells = rng.integers(0, table.shape, size=(count, len(table.shape)))
    edges = origin + (cells - pad) * width
    return np.vstack(
        [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
    )


@st.composite
def bound_cases(draw):
    """A fitted KDE (via ``fit_from_centers``) and a seed for its queries."""
    return (
        draw(st.sampled_from(KERNELS)),
        draw(st.sampled_from([1, 2, 3])),
        draw(st.sampled_from([0.0, 1e6, 1e8])),
        draw(st.integers(1, 40)),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestDensityLowerBound:
    """``density_lower_bound`` never exceeds the evaluated float64 density."""

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(case=bound_cases())
    def test_bound_never_exceeds_evaluate(self, case):
        kernel, d, offset, m, seed = case
        rng = np.random.default_rng(seed)
        widths = rng.uniform(0.3, 1.0, d)
        # A few tight clusters, so cells hold several (or duplicate)
        # centres and the bound is positive near them.
        hubs = offset + rng.uniform(-2.0, 2.0, (3, d))
        centers = hubs[rng.integers(0, 3, m)] + rng.normal(0.0, 0.3, (m, d))
        centers[: m // 4] = centers[m // 4 : 2 * (m // 4)]
        kde = KernelDensityEstimator(kernel=kernel).fit_from_centers(
            centers, n_points=int(rng.integers(m, 20 * m)), bandwidths=widths
        )
        picks = centers[rng.integers(0, m, 60)]
        axis = rng.integers(0, d, 60)
        # Exactly one support (h) from a centre in one attribute.
        at_edge = picks.copy()
        at_edge[np.arange(60), axis] += widths[axis] * rng.choice([-1.0, 1.0], 60)
        queries = np.vstack(
            [
                centers,
                centers,
                at_edge,
                picks + rng.normal(0.0, 1.0, (60, d)) * widths,
                np.full((1, d), np.nan),
                np.full((1, d), np.inf),
                np.full((1, d), -np.inf),
            ]
        )
        bound, _values = _assert_bound_holds(kde, queries)
        assert (bound[-3:] == 0.0).all()
        has_grid = kde._bound_grid_[3].size > 0
        assert has_grid == (kernel != "gaussian")
        if has_grid:
            assert bound[:m].all()
            _assert_bound_holds(kde, _grid_edge_rows(kde, rng, 100))
        else:
            assert not bound.any()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tight_on_fig5(self, kernel):
        """The bound is close to the density where centres are dense:
        a zero bound would pass every ``<=`` check above."""
        data = make_fig5_dataset(n_points=5_000, random_state=0).points
        kde = KernelDensityEstimator(kernel=kernel, random_state=0).fit(data)
        bound, values = _assert_bound_holds(kde, data)
        if kernel == "gaussian":
            assert not bound.any()
        else:
            assert np.median(bound[values > 0] / values[values > 0]) > 0.5

    def test_zero_width_attribute_gives_zeros(self):
        kde = KernelDensityEstimator().fit_from_centers(
            [[0.0, 0.0], [0.1, 0.2]], n_points=10, bandwidths=0.5
        )
        kde.bandwidths_ = np.array([0.5, 0.0])
        assert not kde.density_lower_bound([[0.0, 0.0], [0.1, 0.2]]).any()

    def test_high_dimension_falls_back_to_zero(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 1.0, (2_000, 8))
        kde = KernelDensityEstimator(n_kernels=200, random_state=0).fit(data)
        bound, _values = _assert_bound_holds(kde, data[:500])
        assert not bound.any()
        assert kde._bound_grid_[3].size == 0

    def test_refit_drops_the_cached_grid(self):
        rng = np.random.default_rng(1)
        first, second = rng.normal(size=(2, 3_000, 2))
        second = 5.0 * second + 40.0
        kde = KernelDensityEstimator(n_kernels=300, random_state=0).fit(first)
        kde.density_lower_bound(first[:10])
        kde.fit(second)
        fresh = KernelDensityEstimator(n_kernels=300, random_state=0).fit(second)
        np.testing.assert_array_equal(
            kde.density_lower_bound(second), fresh.density_lower_bound(second)
        )
        assert kde.density_lower_bound(second).any()
        kde.fit_from_centers(first[:50], n_points=3_000, bandwidths=0.3)
        rebuilt = KernelDensityEstimator().fit_from_centers(
            first[:50], n_points=3_000, bandwidths=0.3
        )
        np.testing.assert_array_equal(
            kde.density_lower_bound(first), rebuilt.density_lower_bound(first)
        )

    @pytest.mark.parametrize("pad", [0, 1, 5, 63, 70])
    @pytest.mark.parametrize("shape", [(1, 3), (9, 4), (200, 3), (130, 2, 5)])
    def test_convolve_axis_matches_the_direct_sum(self, shape, pad):
        """The blocked convolution of the grid build equals the sum over
        offsets, across block edges and for pads past one block."""
        rng = np.random.default_rng(pad)
        table = rng.integers(0, 4, shape).astype(float)
        factors = rng.uniform(0.0, 1.0, 2 * pad + 1)
        for axis in range(len(shape)):
            src = np.moveaxis(table, axis, 0)
            expected = np.zeros_like(src)
            n = src.shape[0]
            for delta in range(-pad, pad + 1):
                lo, hi = max(0, delta), n + min(0, delta)
                if lo < hi:
                    shifted = src[lo - delta : hi - delta]
                    expected[lo:hi] += factors[delta + pad] * shifted
            np.testing.assert_allclose(
                kde_module._convolve_axis(table, factors, axis),
                np.moveaxis(expected, 0, axis),
                rtol=1e-13,
                atol=0.0,
            )


class TestBallMass:
    def test_ball_mass_counts_neighbors(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(0.0, 1.0, size=(20_000, 2))
        kde = KernelDensityEstimator(n_kernels=2000, random_state=0).fit(data)
        radius = 0.05
        mass = kde.ball_mass([[0.5, 0.5]], radius, n_mc=2000, random_state=0)
        # Against the true count (uniform density), generously: the KDE
        # itself has O(1/sqrt(n_kernels)) noise.
        expected = 20_000 * np.pi * radius**2
        assert mass[0] == pytest.approx(expected, rel=0.5)
        # Against the estimator's own density (tight): for a small ball
        # the integral must match f(center) * volume up to MC error.
        f_center = kde.evaluate([[0.5, 0.5]])[0]
        assert mass[0] == pytest.approx(
            f_center * np.pi * radius**2, rel=0.1
        )

    def test_ball_mass_zero_far_away(self):
        data = np.random.default_rng(5).normal(size=(1000, 2))
        kde = KernelDensityEstimator(n_kernels=100, random_state=0).fit(data)
        mass = kde.ball_mass([[50.0, 50.0]], 0.1, random_state=0)
        assert mass[0] == 0.0


class TestFitFromCenters:
    def test_manual_construction(self):
        kde = KernelDensityEstimator(kernel="epanechnikov")
        kde.fit_from_centers([[0.0], [1.0]], n_points=100, bandwidths=0.5)
        assert kde.evaluate([[0.0]])[0] > 0
        assert kde.n_points_ == 100

    def test_rule_name_without_std_rejected(self):
        """Regression: a rule name used to be resolved against a
        fabricated unit spread; it must demand the real one."""
        kde = KernelDensityEstimator(kernel="epanechnikov")
        with pytest.raises(ParameterError, match="std"):
            kde.fit_from_centers(
                [[0.0], [1.0]], n_points=100, bandwidths="scott"
            )

    def test_rule_name_with_explicit_std(self):
        kde = KernelDensityEstimator(kernel="epanechnikov")
        kde.fit_from_centers(
            [[0.0, 0.0], [1.0, 1.0]],
            n_points=100,
            bandwidths="scott",
            std=[1.0, 3.0],
        )
        # The resolved widths track the supplied spread per attribute.
        assert kde.bandwidths_[1] == pytest.approx(3.0 * kde.bandwidths_[0])
