"""Tests for the density-biased sampler (the paper's Figure 1 algorithm)."""

import numpy as np
import pytest

from repro.core import DensityBiasedSampler, OnePassBiasedSampler, UniformSampler
from repro.density import GridDensityEstimator, KernelDensityEstimator
from repro.exceptions import ParameterError
from repro.utils.streams import DataStream


@pytest.fixture
def two_density_data():
    """Half the points in a tight blob, half spread over a wide square."""
    rng = np.random.default_rng(7)
    dense = rng.normal(0.0, 0.05, size=(3000, 2))
    sparse = rng.uniform(-2.0, 2.0, size=(3000, 2))
    return np.vstack([dense, sparse])


class TestProperties:
    """The paper's Property 1 and Property 2 (section 2.1)."""

    def test_expected_size_matches_budget(self, two_density_data):
        """Property 2: the expected sample size is b."""
        sampler = DensityBiasedSampler(
            sample_size=500, exponent=1.0, random_state=0
        )
        sampler.sample(two_density_data)
        assert sampler.probabilities_.sum() == pytest.approx(500, rel=0.02)

    def test_achieved_size_concentrates(self, two_density_data):
        sizes = [
            len(
                DensityBiasedSampler(
                    sample_size=400, exponent=0.5, random_state=seed
                ).sample(two_density_data)
            )
            for seed in range(10)
        ]
        assert abs(np.mean(sizes) - 400) < 30

    def test_probability_is_function_of_density(self, two_density_data):
        """Property 1: equal densities get equal probabilities."""
        sampler = DensityBiasedSampler(
            sample_size=300, exponent=1.0, random_state=0
        )
        sampler.sample(two_density_data)
        dens = sampler.estimator_.evaluate(two_density_data)
        probs = sampler.probabilities_
        order = np.argsort(dens)
        # Probabilities must be monotone in density for a > 0.
        assert (np.diff(probs[order]) >= -1e-12).all()

    def test_probabilities_clipped_to_one(self, two_density_data):
        sampler = DensityBiasedSampler(
            sample_size=5000, exponent=2.0, random_state=0
        )
        sampler.sample(two_density_data)
        assert sampler.probabilities_.max() <= 1.0


class TestExponentRegimes:
    def test_zero_exponent_is_uniform(self, two_density_data):
        sampler = DensityBiasedSampler(
            sample_size=500, exponent=0.0, random_state=0
        )
        sampler.sample(two_density_data)
        expected = 500 / two_density_data.shape[0]
        np.testing.assert_allclose(sampler.probabilities_, expected)

    def test_positive_exponent_oversamples_dense(self, two_density_data):
        sample = DensityBiasedSampler(
            sample_size=600, exponent=1.0, random_state=0
        ).sample(two_density_data)
        dense_share = (sample.indices < 3000).mean()
        assert dense_share > 0.75

    def test_negative_exponent_oversamples_sparse(self, two_density_data):
        sample = DensityBiasedSampler(
            sample_size=600, exponent=-0.5, random_state=0
        ).sample(two_density_data)
        dense_share = (sample.indices < 3000).mean()
        assert dense_share < 0.35

    def test_minus_one_equalises_volume(self):
        """a = -1: equal expected sample points in equal volumes."""
        rng = np.random.default_rng(0)
        left = rng.uniform((0.0, 0.0), (0.5, 1.0), size=(8000, 2))
        right = rng.uniform((0.5, 0.0), (1.0, 1.0), size=(2000, 2))
        data = np.vstack([left, right])
        sampler = DensityBiasedSampler(
            sample_size=1000, exponent=-1.0, random_state=0
        )
        sample = sampler.sample(data)
        left_share = (sample.points[:, 0] < 0.5).mean()
        assert left_share == pytest.approx(0.5, abs=0.1)


class TestMechanics:
    def test_three_passes_with_unfitted_estimator(self, two_density_data):
        stream = DataStream(two_density_data)
        DensityBiasedSampler(
            sample_size=200, exponent=1.0, random_state=0
        ).sample(None, stream=stream)
        assert stream.passes == 3  # fit + densities + gather

    def test_two_passes_with_prefitted_estimator(self, two_density_data):
        estimator = KernelDensityEstimator(
            n_kernels=100, random_state=0
        ).fit(two_density_data)
        stream = DataStream(two_density_data)
        DensityBiasedSampler(
            sample_size=200, exponent=1.0, estimator=estimator, random_state=0
        ).sample(None, stream=stream)
        assert stream.passes == 2

    def test_result_fields_consistent(self, two_density_data):
        sample = DensityBiasedSampler(
            sample_size=300, exponent=0.5, random_state=1
        ).sample(two_density_data)
        assert len(sample) == sample.points.shape[0]
        assert sample.indices.shape[0] == len(sample)
        assert sample.probabilities.shape[0] == len(sample)
        assert sample.densities.shape[0] == len(sample)
        assert sample.n_source == two_density_data.shape[0]
        np.testing.assert_array_equal(
            sample.points, two_density_data[sample.indices]
        )

    def test_weights_are_inverse_probabilities(self, two_density_data):
        sample = DensityBiasedSampler(
            sample_size=300, exponent=1.0, random_state=0
        ).sample(two_density_data)
        np.testing.assert_allclose(
            sample.weights, 1.0 / sample.probabilities
        )

    def test_exact_size_mode(self, two_density_data):
        sample = DensityBiasedSampler(
            sample_size=250, exponent=1.0, exact_size=True, random_state=0
        ).sample(two_density_data)
        assert len(sample) == 250
        assert np.unique(sample.indices).shape[0] == 250

    def test_exact_size_capped_by_dataset(self):
        data = np.random.default_rng(0).normal(size=(50, 2))
        sample = DensityBiasedSampler(
            sample_size=100, exponent=0.5, exact_size=True, random_state=0
        ).sample(data)
        assert len(sample) == 50

    def test_deterministic_given_seed(self, two_density_data):
        a = DensityBiasedSampler(
            sample_size=200, exponent=1.0, random_state=3
        ).sample(two_density_data)
        b = DensityBiasedSampler(
            sample_size=200, exponent=1.0, random_state=3
        ).sample(two_density_data)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_alternative_estimator_backend(self, two_density_data):
        sample = DensityBiasedSampler(
            sample_size=300,
            exponent=1.0,
            estimator=GridDensityEstimator(bins_per_dim=16),
            random_state=0,
        ).sample(two_density_data)
        dense_share = (sample.indices < 3000).mean()
        assert dense_share > 0.7

    def test_negative_exponent_with_zero_density_points(self):
        """Isolated points (zero KDE density) must not break a < 0."""
        rng = np.random.default_rng(0)
        blob = rng.normal(0.0, 0.01, size=(2000, 2))
        isolated = np.array([[100.0, 100.0], [-100.0, -50.0]])
        data = np.vstack([blob, isolated])
        # Outlier-hunting configuration: a deliberately low floor so
        # isolated points dominate (the default 0.05 floor bounds the
        # boost for cluster work instead).
        sampler = DensityBiasedSampler(
            sample_size=50,
            exponent=-0.5,
            density_floor_fraction=1e-6,
            random_state=0,
        )
        sampler.sample(data)
        # The isolated points are maximally sparse: their inclusion
        # probability must dwarf every blob point's (no inf/NaN blowup).
        iso_probs = sampler.probabilities_[2000:]
        blob_max = sampler.probabilities_[:2000].max()
        assert np.isfinite(sampler.probabilities_).all()
        assert iso_probs.min() > 10 * blob_max

    def test_default_floor_bounds_empty_space_boost(self):
        """With the default floor, zero-density points get a bounded
        boost (floor**a) rather than dominating the sample."""
        rng = np.random.default_rng(0)
        blob = rng.normal(0.0, 0.01, size=(2000, 2))
        isolated = np.array([[100.0, 100.0]])
        sampler = DensityBiasedSampler(
            sample_size=50, exponent=-0.5, random_state=0
        )
        sampler.sample(np.vstack([blob, isolated]))
        iso = sampler.probabilities_[-1]
        mean_prob = sampler.probabilities_[:2000].mean()
        assert iso < 50 * mean_prob

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ParameterError):
            DensityBiasedSampler(sample_size=0)


def _overflow_data(scale):
    """A tight blob plus far noise: with a = -2 and a 1e-300 floor the
    noise weights f^a overflow; scaled by 1e-300 the densities do."""
    rng = np.random.default_rng(0)
    blob = rng.normal(0.0, 0.01, size=(2000, 2))
    noise = rng.uniform(-50.0, 50.0, size=(20, 2))
    return np.vstack([blob, noise]) * scale


class TestNonFiniteNormalizer:
    """An overflowing normaliser raises instead of an empty sample."""

    SAMPLERS = {
        "two-pass": lambda: DensityBiasedSampler(
            sample_size=100,
            exponent=-2.0,
            density_floor_fraction=1e-300,
            random_state=0,
        ),
        "exact-size": lambda: DensityBiasedSampler(
            sample_size=100,
            exponent=-2.0,
            density_floor_fraction=1e-300,
            exact_size=True,
            random_state=0,
        ),
        "one-pass": lambda: OnePassBiasedSampler(
            sample_size=100,
            exponent=-2.0,
            density_floor_fraction=1e-300,
            random_state=0,
        ),
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_overflowing_weights_raise_located_error(self, sampler):
        with pytest.raises(ParameterError) as info:
            self.SAMPLERS[sampler]().sample(_overflow_data(1.0))
        message = str(info.value)
        where = "_estimate_normalizer" if sampler == "one-pass" else (
            "compute_probabilities"
        )
        assert where in message
        assert "not finite" in message
        assert "a=-2.0" in message
        assert "density floor" in message
        # Ten noise points lie outside every kernel and sit on the floor.
        assert "10 of " in message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_overflowing_densities_raise(self, sampler):
        with pytest.raises(ParameterError):
            self.SAMPLERS[sampler]().sample(_overflow_data(1e-300))

    def test_compute_probabilities_rejects_infinite_weights(self):
        sampler = DensityBiasedSampler(sample_size=10, exponent=1.0)
        densities = np.array([1.0, np.inf, 2.0, np.nan])
        with pytest.raises(ParameterError, match="2 of 4 weights"):
            sampler.compute_probabilities(densities)


class TestUniformSampler:
    def test_expected_size(self):
        data = np.random.default_rng(0).normal(size=(10_000, 2))
        sizes = [
            len(UniformSampler(500, random_state=s).sample(data))
            for s in range(10)
        ]
        assert abs(np.mean(sizes) - 500) < 40

    def test_exact_size_mode(self):
        data = np.random.default_rng(0).normal(size=(1000, 2))
        sample = UniformSampler(100, exact_size=True, random_state=0).sample(
            data
        )
        assert len(sample) == 100

    def test_probabilities_flat(self):
        data = np.random.default_rng(0).normal(size=(1000, 2))
        sample = UniformSampler(100, random_state=0).sample(data)
        np.testing.assert_allclose(sample.probabilities, 0.1)

    def test_exponent_marker_is_zero(self):
        data = np.random.default_rng(0).normal(size=(100, 2))
        assert UniformSampler(10, random_state=0).sample(data).exponent == 0.0

    def test_oversized_budget(self):
        data = np.random.default_rng(0).normal(size=(50, 2))
        sample = UniformSampler(500, random_state=0).sample(data)
        assert len(sample) == 50

    def test_oversized_budget_expected_size(self):
        """Regression: with b > n at most n points can be drawn, so the
        reported expectation is n * min(1, b/n) = n, not b."""
        data = np.random.default_rng(0).normal(size=(50, 2))
        for exact in (False, True):
            sample = UniformSampler(
                500, exact_size=exact, random_state=0
            ).sample(data)
            assert sample.expected_size == 50.0
            np.testing.assert_allclose(sample.probabilities, 1.0)
