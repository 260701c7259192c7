"""Tests for the k-NN density estimator."""

import numpy as np
import pytest

from repro.density import KnnDensityEstimator
from repro.exceptions import NotFittedError, ParameterError
from repro.utils.streams import DataStream


class TestFitting:
    def test_one_pass(self):
        stream = DataStream(np.random.default_rng(0).random((500, 2)))
        KnnDensityEstimator(n_sample=100, k=5, random_state=0).fit(
            stream=stream
        )
        assert stream.passes == 1

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            KnnDensityEstimator().evaluate([[0.0, 0.0]])

    def test_k_must_fit_sample(self):
        with pytest.raises(ParameterError, match="k must be"):
            KnnDensityEstimator(n_sample=10, k=20)

    def test_small_data_caps_sample(self):
        est = KnnDensityEstimator(n_sample=100, k=3, random_state=0)
        est.fit(np.random.default_rng(0).random((20, 2)))
        assert est.sample_size_ == 20


class TestEvaluation:
    def test_dense_beats_sparse(self):
        rng = np.random.default_rng(1)
        dense = rng.normal(0.0, 0.05, size=(4000, 2))
        sparse = rng.normal(3.0, 0.8, size=(1000, 2))
        est = KnnDensityEstimator(n_sample=500, k=10, random_state=0).fit(
            np.vstack([dense, sparse])
        )
        assert est.evaluate([[0.0, 0.0]])[0] > est.evaluate([[3.0, 3.0]])[0]

    def test_uniform_density_magnitude(self):
        rng = np.random.default_rng(2)
        data = rng.random((20_000, 2))
        est = KnnDensityEstimator(n_sample=2000, k=20, random_state=0).fit(
            data
        )
        f = est.evaluate([[0.5, 0.5]])[0]
        assert f == pytest.approx(20_000, rel=0.5)

    def test_duplicate_points_do_not_blow_up(self):
        data = np.vstack(
            [np.zeros((50, 2)), np.random.default_rng(0).random((50, 2))]
        )
        est = KnnDensityEstimator(n_sample=100, k=5, random_state=0).fit(data)
        f = est.evaluate([[0.0, 0.0]])
        assert np.isfinite(f).all()

    def test_zero_radius_density_is_row_local(self):
        # A query on the duplicated points has a zero k-th-neighbour
        # radius; its density must not depend on the other rows in the
        # batch, since the scan runner may split a chunk into row ranges.
        data = np.vstack(
            [np.zeros((50, 2)), np.random.default_rng(0).random((50, 2))]
        )
        est = KnnDensityEstimator(n_sample=100, k=5, random_state=0).fit(data)
        queries = np.array([[0.0, 0.0], [0.5, 0.5], [0.9, 0.1]])
        together = est.evaluate(queries)
        alone = np.concatenate([est.evaluate(row) for row in queries])
        assert together.tobytes() == alone.tobytes()

    def test_positive_everywhere(self):
        """k-NN density is adaptive: never exactly zero."""
        data = np.random.default_rng(3).random((200, 2))
        est = KnnDensityEstimator(n_sample=100, k=5, random_state=0).fit(data)
        assert est.evaluate([[100.0, 100.0]])[0] > 0
