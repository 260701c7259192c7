"""Tests for kernel profiles and bandwidth rules."""

import numpy as np
import pytest
from scipy.integrate import quad

from repro.density.bandwidth import (
    resolve_bandwidth,
    scott_bandwidth,
    silverman_bandwidth,
)
from repro.density.kde import KernelDensityEstimator
from repro.density.kernels import (
    BiweightKernel,
    EpanechnikovKernel,
    GaussianKernel,
    TriangularKernel,
    UniformKernel,
    get_kernel,
)
from repro.exceptions import ParameterError

ALL_KERNELS = [
    EpanechnikovKernel(),
    GaussianKernel(),
    UniformKernel(),
    TriangularKernel(),
    BiweightKernel(),
]


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
class TestKernelProfiles:
    def test_integrates_to_one(self, kernel):
        value, _ = quad(lambda u: float(kernel(u)), -10, 10)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_symmetric(self, kernel):
        u = np.linspace(0.0, 3.0, 50)
        np.testing.assert_allclose(kernel(u), kernel(-u))

    def test_non_negative(self, kernel):
        u = np.linspace(-3, 3, 101)
        assert (kernel(u) >= 0).all()

    def test_zero_outside_support(self, kernel):
        if not np.isfinite(kernel.support):
            pytest.skip("unbounded support")
        assert kernel(np.array([kernel.support + 0.01]))[0] == 0.0

    def test_maximum_at_origin(self, kernel):
        u = np.linspace(-1, 1, 101)
        assert kernel(np.array([0.0]))[0] == pytest.approx(kernel(u).max())


class TestGetKernel:
    def test_by_name(self):
        assert get_kernel("gaussian").name == "gaussian"

    def test_instance_passthrough(self):
        kernel = EpanechnikovKernel()
        assert get_kernel(kernel) is kernel

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown kernel"):
            get_kernel("parabolic")


class TestBandwidthRules:
    def test_scott_shrinks_with_n(self):
        std = np.array([1.0, 2.0])
        small = scott_bandwidth(std, 100, 2)
        large = scott_bandwidth(std, 100_000, 2)
        assert (large < small).all()

    def test_scott_proportional_to_std(self):
        h = scott_bandwidth(np.array([1.0, 3.0]), 1000, 2)
        assert h[1] == pytest.approx(3.0 * h[0])

    def test_silverman_scott_ratio(self):
        """Silverman = Scott * (4/(d+2))^(1/(d+4)): larger in 1-D,
        smaller from d >= 3."""
        std = np.array([1.0])
        assert silverman_bandwidth(std, 500, 1) > scott_bandwidth(std, 500, 1)
        std3 = np.ones(3)
        assert (
            silverman_bandwidth(std3, 500, 3) < scott_bandwidth(std3, 500, 3)
        ).all()

    def test_epanechnikov_wider_than_gaussian(self):
        std = np.array([1.0])
        gauss = scott_bandwidth(std, 500, 1, kernel="gaussian")
        epan = scott_bandwidth(std, 500, 1, kernel="epanechnikov")
        assert epan > gauss

    def test_zero_std_floored(self):
        h = scott_bandwidth(np.array([0.0]), 100, 1)
        assert h[0] > 0

    def test_constant_attribute_floor_tracks_other_spreads(self):
        """Regression: the constant-attribute fallback is relative to the
        data's scale, not an absolute 1e-3 (which would be a delta spike
        for data in units of 1e6)."""
        h_small = scott_bandwidth(np.array([0.0, 1.0]), 100, 2)
        h_large = scott_bandwidth(np.array([0.0, 1e6]), 100, 2)
        assert h_large[0] == pytest.approx(1e6 * h_small[0])
        # The floored width stays a fixed small fraction of the spread.
        assert h_small[0] == pytest.approx(1e-3 * h_small[1])

    def test_constant_attribute_floor_uses_scale_hint(self):
        """All-constant data still gets a scale-relative width when the
        caller supplies a data-magnitude hint."""
        h_unit = scott_bandwidth(np.array([0.0]), 100, 1)
        h_big = scott_bandwidth(np.array([0.0]), 100, 1, scale=1e6)
        assert h_big[0] == pytest.approx(1e6 * h_unit[0])

    def test_single_point_rejected(self):
        """Regression: a 1-point fit has no sample spread; the rules must
        say so instead of silently returning the 1e-3 floor."""
        with pytest.raises(ParameterError, match="at least 2 points"):
            scott_bandwidth(np.array([1.0]), 1, 1)

    def test_rejects_negative_std(self):
        with pytest.raises(ParameterError):
            scott_bandwidth(np.array([-1.0]), 100, 1)


class TestResolveBandwidth:
    def test_rule_names(self):
        std = np.array([1.0, 1.0])
        for rule in ("scott", "silverman"):
            h = resolve_bandwidth(rule, std, 100, 2, "gaussian")
            assert h.shape == (2,)

    def test_scalar_broadcast(self):
        h = resolve_bandwidth(0.3, np.ones(3), 100, 3, "gaussian")
        np.testing.assert_array_equal(h, [0.3, 0.3, 0.3])

    def test_vector_checked(self):
        with pytest.raises(ParameterError, match="shape"):
            resolve_bandwidth([0.1, 0.2], np.ones(3), 100, 3, "gaussian")

    def test_rejects_unknown_rule(self):
        with pytest.raises(ParameterError, match="unknown bandwidth rule"):
            resolve_bandwidth("magic", np.ones(1), 100, 1, "gaussian")

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError, match="positive"):
            resolve_bandwidth(0.0, np.ones(1), 100, 1, "gaussian")


class TestNonFiniteBandwidths:
    """A NaN width makes every density NaN and an infinite one makes
    the estimate zero everywhere; both are refused at fit time, with
    the attribute named."""

    @pytest.fixture
    def data(self):
        return np.random.default_rng(0).normal(size=(500, 2))

    def test_nan_scalar(self, data):
        kde = KernelDensityEstimator(n_kernels=50, bandwidth=np.nan)
        with pytest.raises(ParameterError, match="attribute 0 is nan"):
            kde.fit(data)

    def test_nan_in_vector(self, data):
        kde = KernelDensityEstimator(n_kernels=50, bandwidth=[0.1, np.nan])
        with pytest.raises(ParameterError, match="attribute 1 is nan"):
            kde.fit(data)

    def test_inf_scalar(self, data):
        kde = KernelDensityEstimator(n_kernels=50, bandwidth=np.inf)
        with pytest.raises(ParameterError, match="attribute 0 is inf"):
            kde.fit(data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rule_overflow_near_1e300(self, data):
        """Spreads near 1e300 overflow the variance, so Scott's rule
        comes out infinite; the fit must say so, not the sampler."""
        scaled = data * np.array([1.0, 1e300])
        kde = KernelDensityEstimator(n_kernels=50, random_state=0)
        with pytest.raises(ParameterError, match="attribute 1 is inf.*'scott'"):
            kde.fit(scaled)

    def test_fit_from_centers_checked(self):
        kde = KernelDensityEstimator()
        with pytest.raises(ParameterError, match="finite"):
            kde.fit_from_centers([[0.0], [1.0]], 100, bandwidths=np.inf)
