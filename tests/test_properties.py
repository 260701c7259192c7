"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import DensityBiasedSampler, theory
from repro.core.weights import effective_sample_size
from repro.density import KernelDensityEstimator, get_kernel
from repro.utils.streams import DataStream
from repro.utils.geometry import ball_volume, pair_sq_distances
from repro.utils.heaps import IndexedMinHeap
from repro.utils.scaling import MinMaxScaler

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def point_arrays(min_rows=2, max_rows=60, min_cols=1, max_cols=4):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
        ),
        elements=finite_floats,
    )


class TestGeometryProperties:
    @given(point_arrays())
    def test_pairwise_symmetric_nonnegative(self, pts):
        d = pair_sq_distances(pts, pts)
        assert (d >= 0).all()
        np.testing.assert_array_equal(d, d.T)
        assert (np.diag(d) == 0.0).all()

    @given(point_arrays(max_rows=20), point_arrays(max_rows=20))
    def test_cross_distances_match_norm(self, a, b):
        if a.shape[1] != b.shape[1]:
            b = np.resize(b, (b.shape[0], a.shape[1]))
        d = pair_sq_distances(a, b)
        i, j = 0, b.shape[0] - 1
        direct = 0.0
        for x, y in zip(a[i].tolist(), b[j].tolist()):
            direct += (x - y) * (x - y)
        assert d[i, j] == direct

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=1, max_value=10),
    )
    def test_ball_volume_monotone_in_radius(self, radius, dim):
        assert ball_volume(radius * 1.1, dim) > ball_volume(radius, dim)


class TestScalerProperties:
    @given(point_arrays(min_rows=2))
    def test_transform_lands_in_unit_cube(self, pts):
        unit = MinMaxScaler().fit_transform(pts)
        assert (unit >= -1e-9).all() and (unit <= 1 + 1e-9).all()

    @given(point_arrays(min_rows=2))
    def test_roundtrip(self, pts):
        scaler = MinMaxScaler().fit(pts)
        back = scaler.inverse_transform(scaler.transform(pts))
        np.testing.assert_allclose(back, pts, atol=1e-6, rtol=1e-9)


class TestHeapProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), finite_floats),
            min_size=1,
            max_size=100,
        )
    )
    def test_pops_in_sorted_order(self, items):
        heap = IndexedMinHeap()
        reference = {}
        for item, key in items:
            heap.push(item, key)
            reference[item] = key
        drained = []
        while len(heap):
            item, key = heap.pop()
            assert reference.pop(item) == key
            drained.append(key)
        assert drained == sorted(drained)
        assert not reference


class TestKernelProperties:
    @given(
        st.sampled_from(
            ["epanechnikov", "gaussian", "uniform", "triangular", "biweight"]
        ),
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(1, 50),
            elements=st.floats(-5, 5),
        ),
    )
    def test_kernels_nonnegative_and_symmetric(self, name, u):
        kernel = get_kernel(name)
        values = kernel(u)
        assert (values >= 0).all()
        np.testing.assert_allclose(values, kernel(-u), atol=1e-12)


class TestSamplerProperties:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        exponent=st.floats(min_value=-1.5, max_value=1.5),
        seed=st.integers(0, 1000),
    )
    def test_probabilities_valid_for_any_exponent(self, exponent, seed):
        rng = np.random.default_rng(0)
        data = np.vstack(
            [
                rng.normal(0.0, 0.05, size=(300, 2)),
                rng.uniform(-1.0, 1.0, size=(300, 2)),
            ]
        )
        sampler = DensityBiasedSampler(
            sample_size=100,
            exponent=exponent,
            estimator=KernelDensityEstimator(n_kernels=64, random_state=0),
            random_state=seed,
        )
        sample = sampler.sample(data)
        probs = sampler.probabilities_
        assert np.isfinite(probs).all()
        # a > 0 may assign probability exactly 0 to zero-density points;
        # sampled points always carry a positive probability.
        assert (probs >= 0).all() and (probs <= 1).all()
        assert (sample.probabilities > 0).all()
        # Expected size never exceeds the budget (clipping only shrinks).
        assert probs.sum() <= 100 + 1e-6
        # Sampled indices are unique and in range.
        assert np.unique(sample.indices).shape[0] == len(sample)
        assert len(sample) == 0 or sample.indices.max() < 600

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(100, 10**6),
        frac=st.floats(0.001, 0.5),
        eta=st.floats(0.01, 0.9),
        delta=st.floats(0.01, 0.5),
    )
    def test_guha_bound_dominates_eta_n(self, n, frac, eta, delta):
        """The uniform bound is always at least eta*n (you must at least
        take the points you want) and grows as delta shrinks."""
        cluster = max(1, int(frac * n))
        s = theory.uniform_sample_size(n, cluster, eta, delta)
        assert s >= eta * n
        tighter = theory.uniform_sample_size(n, cluster, eta, delta / 2)
        assert tighter >= s

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1000, 10**6),
        frac=st.floats(0.001, 0.2),
        p=st.floats(0.001, 1.0),
    )
    def test_theorem1_crossover_property(self, n, frac, p):
        cluster = max(1, int(frac * n))
        s = theory.uniform_sample_size(n, cluster, 0.2, 0.1)
        s_r = theory.biased_sample_size(n, cluster, 0.2, 0.1, p)
        if theory.theorem1_holds(n, cluster, p):
            assert s_r <= s * (1 + 1e-9)
        else:
            assert s_r >= s * (1 - 1e-9)


#: Seeded plantings of NaN and +/-inf rows that always leave a usable
#: number of survivors: ``(seed, nan_rate, inf_rate)``.
fault_plantings = st.tuples(
    st.integers(0, 50), st.floats(0.0, 0.08), st.floats(0.0, 0.04)
)


def _faulted_stream(data_seed: int, planting) -> DataStream:
    """A quarantining stream over seeded Gaussian data with planted
    NaN and +/-inf rows."""
    seed, nan_rate, inf_rate = planting
    data = np.random.default_rng(data_seed).normal(size=(400, 2))
    order = np.random.default_rng(seed).permutation(data.shape[0])
    n_nan, n_inf = int(nan_rate * 400), int(inf_rate * 400)
    data[order[:n_nan]] = np.nan
    data[order[n_nan : n_nan + n_inf]] = -np.inf
    return DataStream(data, chunk_size=64, fault_policy="quarantine")


class TestFaultedStreamProperties:
    """Sampler invariants must survive streams quarantining planted rows."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data_seed=st.integers(0, 100), planting=fault_plantings)
    def test_sampled_rows_are_survivors(self, data_seed, planting):
        stream = _faulted_stream(data_seed, planting)
        survivors = stream.materialize()
        assert survivors.shape[0] == stream.n_points
        sampler = DensityBiasedSampler(
            sample_size=60,
            exponent=0.5,
            estimator=KernelDensityEstimator(n_kernels=32, random_state=0),
            random_state=data_seed,
        )
        sample = sampler.sample(None, stream=stream)
        # Every sampled row is exactly a surviving row (no quarantined
        # row leaks into the sample, no repair blending happens).
        np.testing.assert_array_equal(
            sample.points, survivors[sample.indices]
        )
        assert np.isfinite(sample.points).all()
        assert sample.n_source == stream.n_points

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data_seed=st.integers(0, 100), planting=fault_plantings)
    def test_expected_size_monotone_in_budget(self, data_seed, planting):
        stream = _faulted_stream(data_seed, planting)
        estimator = KernelDensityEstimator(n_kernels=32, random_state=0)
        estimator.fit(stream=stream)
        expectations = []
        for budget in (20, 60, 180):
            sampler = DensityBiasedSampler(
                sample_size=budget,
                exponent=0.5,
                estimator=estimator,
                random_state=0,
            )
            sampler.sample(None, stream=stream)
            expectations.append(sampler.probabilities_.sum())
        assert expectations[0] <= expectations[1] + 1e-9
        assert expectations[1] <= expectations[2] + 1e-9

    @settings(max_examples=3, deadline=None)
    @given(planting=fault_plantings)
    def test_ht_weight_sum_unbiased_over_survivors(self, planting):
        """Horvitz-Thompson: E[sum of 1/p over the sample] equals the
        number of surviving rows with positive inclusion probability."""
        stream = _faulted_stream(7, planting)
        estimator = KernelDensityEstimator(n_kernels=32, random_state=0)
        estimator.fit(stream=stream)
        sampler = DensityBiasedSampler(
            sample_size=80, exponent=0.5, estimator=estimator, random_state=0
        )
        sampler.sample(None, stream=stream)
        probs = sampler.probabilities_
        reachable = probs > 0
        variance = float(((1 - probs[reachable]) / probs[reachable]).sum())
        rounds = 25
        totals = []
        for draw_seed in range(rounds):
            sampler.random_state = draw_seed
            sample = sampler.sample(None, stream=stream)
            totals.append(float(sample.weights.sum()))
        tolerance = 5.0 * np.sqrt(max(variance, 1e-12) / rounds)
        assert abs(np.mean(totals) - reachable.sum()) <= tolerance


class TestWeightProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(1, 50),
            elements=st.floats(1e-3, 1e3),
        )
    )
    def test_ess_bounded_by_n(self, weights):
        ess = effective_sample_size(weights)
        assert 1.0 - 1e-9 <= ess <= weights.shape[0] + 1e-9


class TestCFTreeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        pts=point_arrays(min_rows=3, max_rows=80, min_cols=1, max_cols=3),
        threshold=st.floats(0.0, 2.0),
        branching=st.integers(2, 8),
    )
    def test_cf_statistics_conserved(self, pts, threshold, branching):
        """Whatever the insertion order, splits and absorptions, the
        leaf CFs must sum to the dataset's (n, LS, SS)."""
        from repro.clustering.birch import CFEntry, CFTree

        tree = CFTree(threshold=threshold, branching_factor=branching)
        for row in pts:
            tree.insert(CFEntry.from_point(row))
        leaves = tree.leaf_entries()
        assert sum(e.n for e in leaves) == pts.shape[0]
        np.testing.assert_allclose(
            np.sum([e.ls for e in leaves], axis=0),
            pts.sum(axis=0),
            rtol=1e-6,
            atol=1e-6,
        )
        total_ss = sum(e.ss for e in leaves)
        np.testing.assert_allclose(
            total_ss, (pts**2).sum(), rtol=1e-6, atol=1e-6
        )
