"""Tests for weighted K-means."""

import numpy as np
import pytest

from repro.clustering import KMeans
from repro.exceptions import DataValidationError, ParameterError


@pytest.fixture
def three_blobs():
    rng = np.random.default_rng(0)
    return np.vstack(
        [rng.normal(c, 0.1, size=(100, 2)) for c in ((0, 0), (5, 0), (0, 5))]
    )


class TestBasics:
    def test_recovers_blobs(self, three_blobs):
        result = KMeans(n_clusters=3, random_state=0).fit(three_blobs)
        assert sorted(result.sizes.tolist()) == [100, 100, 100]

    def test_centers_near_blob_means(self, three_blobs):
        result = KMeans(n_clusters=3, random_state=0).fit(three_blobs)
        targets = np.array([(0, 0), (5, 0), (0, 5)], dtype=float)
        for target in targets:
            nearest = np.linalg.norm(result.centers - target, axis=1).min()
            assert nearest < 0.2

    def test_labels_shape_and_range(self, three_blobs):
        result = KMeans(n_clusters=3, random_state=0).fit(three_blobs)
        assert result.labels.shape == (300,)
        assert set(np.unique(result.labels)) <= {0, 1, 2}

    def test_single_cluster(self, three_blobs):
        result = KMeans(n_clusters=1, random_state=0).fit(three_blobs)
        np.testing.assert_allclose(
            result.centers[0], three_blobs.mean(axis=0), atol=1e-8
        )

    def test_inertia_decreases_with_k(self, three_blobs):
        inertias = []
        for k in (1, 2, 3):
            model = KMeans(n_clusters=k, random_state=0)
            model.fit(three_blobs)
            inertias.append(model.inertia_)
        assert inertias[0] > inertias[1] > inertias[2]

    def test_deterministic(self, three_blobs):
        a = KMeans(n_clusters=3, random_state=1).fit(three_blobs)
        b = KMeans(n_clusters=3, random_state=1).fit(three_blobs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_predict(self, three_blobs):
        model = KMeans(n_clusters=3, random_state=0)
        result = model.fit(three_blobs)
        labels = model.predict([[0.1, 0.1]], result.centers)
        origin_label = result.labels[0]
        # The query near (0,0) must get the same label as blob 0 members.
        member_label = result.labels[
            np.linalg.norm(three_blobs, axis=1).argmin()
        ]
        assert labels[0] == member_label
        assert origin_label in (0, 1, 2)

    def test_predict_rejects_dimension_mismatch(self, three_blobs):
        model = KMeans(n_clusters=3, random_state=0)
        centers = model.fit(three_blobs).centers
        with pytest.raises(DataValidationError, match="KMeans.predict.*d=3.*d=2"):
            model.predict(np.zeros((4, 3)), centers)

    def test_more_clusters_than_points_rejected(self):
        with pytest.raises(Exception):
            KMeans(n_clusters=10, random_state=0).fit(np.zeros((3, 2)))

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            KMeans(n_clusters=0)
        with pytest.raises(ParameterError):
            KMeans(n_init=0)


class TestWeights:
    def test_weights_shift_centers(self):
        """A heavily weighted point drags its cluster center."""
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        weights = np.array([1.0, 1.0, 1.0])
        heavy = np.array([9.0, 1.0, 1.0])
        plain = KMeans(n_clusters=1, random_state=0).fit(
            pts, sample_weight=weights
        )
        weighted = KMeans(n_clusters=1, random_state=0).fit(
            pts, sample_weight=heavy
        )
        assert weighted.centers[0, 0] < plain.centers[0, 0]

    def test_zero_weight_points_ignored_in_centers(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0]])
        weights = np.array([1.0, 1.0, 0.0])
        result = KMeans(n_clusters=1, random_state=0).fit(
            pts, sample_weight=weights
        )
        assert result.centers[0, 0] == pytest.approx(0.05)

    def test_weight_shape_checked(self, three_blobs):
        with pytest.raises(ParameterError, match="sample_weight"):
            KMeans(n_clusters=2, random_state=0).fit(
                three_blobs, sample_weight=np.ones(5)
            )

    def test_negative_weights_rejected(self, three_blobs):
        with pytest.raises(ParameterError):
            KMeans(n_clusters=2, random_state=0).fit(
                three_blobs, sample_weight=-np.ones(300)
            )

    def test_inverse_probability_weighting_recovers_clusters(self):
        """Weighted K-means on a biased sample ~ K-means on the data
        (the paper's section 3.1 correction in action)."""
        from repro.core import DensityBiasedSampler

        rng = np.random.default_rng(1)
        blobs = np.vstack(
            [rng.normal(c, 0.15, size=(3000, 2)) for c in ((0, 0), (4, 4))]
        )
        sample = DensityBiasedSampler(
            sample_size=500, exponent=1.0, random_state=0
        ).sample(blobs)
        result = KMeans(n_clusters=2, random_state=0).fit(
            sample.points, sample_weight=sample.weights
        )
        for target in ((0.0, 0.0), (4.0, 4.0)):
            nearest = np.linalg.norm(
                result.centers - np.array(target), axis=1
            ).min()
            assert nearest < 0.3
