"""Tests for full-dataset label assignment from a clustered sample."""

import numpy as np
import pytest

from repro.clustering import CureClustering, assign_to_clusters
from repro.clustering.base import ClusteringResult
from repro.exceptions import DataValidationError, ParameterError
from repro.utils.streams import DataStream


@pytest.fixture
def blobs_and_sample():
    rng = np.random.default_rng(0)
    data = np.vstack(
        [rng.normal(c, 0.08, size=(500, 2)) for c in ((0, 0), (3, 3))]
    )
    sample_idx = rng.choice(1000, size=150, replace=False)
    return data, data[sample_idx]


class TestAssignment:
    def test_full_dataset_labelled(self, blobs_and_sample):
        data, sample = blobs_and_sample
        result = CureClustering(n_clusters=2).fit(sample)
        labels = assign_to_clusters(data, result)
        assert labels.shape == (1000,)
        # Blob membership must be nearly pure.
        first = np.bincount(labels[:500]).argmax()
        second = np.bincount(labels[500:]).argmax()
        assert first != second
        assert (labels[:500] == first).mean() > 0.95
        assert (labels[500:] == second).mean() > 0.95

    def test_policies_agree_on_spherical_blobs(self, blobs_and_sample):
        data, sample = blobs_and_sample
        result = CureClustering(n_clusters=2).fit(sample)
        by_reps = assign_to_clusters(data, result, policy="representatives")
        by_centers = assign_to_clusters(data, result, policy="centers")
        assert (by_reps == by_centers).mean() > 0.98

    def test_representatives_follow_shape(self):
        """For elongated clusters nearest-representative beats
        nearest-center at the cluster tips."""
        rng = np.random.default_rng(1)
        stripe = np.column_stack(
            [rng.uniform(0, 10, 400), rng.normal(0, 0.05, 400)]
        )
        blob = rng.normal((5.0, 2.0), 0.1, size=(400, 2))
        data = np.vstack([stripe, blob])
        result = CureClustering(n_clusters=2, remove_outliers=False).fit(data)
        labels = assign_to_clusters(data, result, policy="representatives")
        tip = data[np.argmax(data[:, 0])]  # far right stripe tip
        tip_label = labels[np.argmax(data[:, 0])]
        stripe_label = np.bincount(labels[:400]).argmax()
        assert tip[1] < 0.5  # sanity: the tip is on the stripe
        assert tip_label == stripe_label

    def test_one_pass(self, blobs_and_sample):
        data, sample = blobs_and_sample
        result = CureClustering(n_clusters=2).fit(sample)
        stream = DataStream(data)
        assign_to_clusters(None, result, stream=stream)
        assert stream.passes == 1

    def test_rejects_unknown_policy(self, blobs_and_sample):
        data, sample = blobs_and_sample
        result = CureClustering(n_clusters=2).fit(sample)
        with pytest.raises(ParameterError, match="policy"):
            assign_to_clusters(data, result, policy="nearest")

    def test_rejects_empty_result(self, blobs_and_sample):
        data, _ = blobs_and_sample
        empty = ClusteringResult(
            labels=np.empty(0, dtype=np.int64), centers=np.empty((0, 2))
        )
        with pytest.raises(ParameterError, match="no clusters"):
            assign_to_clusters(data, empty)

    @pytest.mark.parametrize("data_dims", [1, 3])
    def test_rejects_dimension_mismatch(self, blobs_and_sample, data_dims):
        """Fewer columns than the anchors would be labelled from a prefix
        of the coordinates, more would index past them: both raise."""
        data, sample = blobs_and_sample
        result = CureClustering(n_clusters=2).fit(sample)
        wrong = np.zeros((10, data_dims))
        with pytest.raises(
            DataValidationError, match=rf"offset 0 have d={data_dims}.*d=2"
        ):
            assign_to_clusters(wrong, result)


def _random_result(rng, n_clusters, n_reps, n_dims, offset):
    """A clustering with ``n_reps`` random representatives per cluster."""
    reps = [
        offset + rng.normal(rng.uniform(-3, 3, n_dims), 0.7, (n_reps, n_dims))
        for _ in range(n_clusters)
    ]
    return ClusteringResult(
        labels=np.empty(0, dtype=np.int64),
        centers=np.array([r.mean(axis=0) for r in reps]),
        representatives=reps,
        sizes=np.full(n_clusters, n_reps, dtype=np.int64),
    )


def _anchors(result, policy):
    if policy == "centers":
        return result.centers, np.arange(result.n_clusters)
    labels = np.repeat(
        np.arange(result.n_clusters),
        [r.shape[0] for r in result.representatives],
    )
    return np.vstack(result.representatives), labels


def _oracle_sq_distances(data, anchors):
    """Squared distances summed coordinate by coordinate, whole array at
    once: no tiling, no shared buffers."""
    sq = np.zeros((data.shape[0], anchors.shape[0]))
    for j in range(data.shape[1]):
        sq = sq + (data[:, j, None] - anchors[None, :, j]) ** 2
    return sq


class TestExactNearestAnchor:
    """The tiled scan is an exact nearest-anchor search."""

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    @pytest.mark.parametrize("policy", ["representatives", "centers"])
    @pytest.mark.parametrize("n_dims", [1, 2, 3, 5, 8])
    def test_matches_coordinatewise_oracle(self, n_dims, policy, offset):
        """Byte-equal labels, over a stream whose 700-row chunks are not
        a multiple of the row tile. At an offset of 1e8 the Gram
        expansion would cancel; per-coordinate sums do not."""
        rng = np.random.default_rng(n_dims)
        result = _random_result(rng, 13, 10, n_dims, offset)
        data = offset + rng.uniform(-4, 4, (2_000, n_dims))
        anchors, anchor_label = _anchors(result, policy)
        expected = anchor_label[
            _oracle_sq_distances(data, anchors).argmin(axis=1)
        ]
        stream = DataStream(data, chunk_size=700)
        labels = assign_to_clusters(None, result, policy=policy, stream=stream)
        assert labels.dtype == np.int64
        assert labels.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("policy", ["representatives", "centers"])
    @pytest.mark.parametrize("n_dims", [1, 2, 3, 5, 8])
    def test_matches_kd_tree(self, n_dims, policy):
        """Same nearest anchor as scipy's kd-tree, except on rows whose
        two best squared distances are within a few ULPs: the tree sums
        coordinates in a different order for d >= 5."""
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(100 + n_dims)
        result = _random_result(rng, 13, 10, n_dims, 0.0)
        data = rng.uniform(-4, 4, (2_000, n_dims))
        anchors, anchor_label = _anchors(result, policy)
        sq = np.sort(_oracle_sq_distances(data, anchors), axis=1)
        clear = sq[:, 1] - sq[:, 0] > 8 * np.spacing(sq[:, 1])
        assert clear.mean() > 0.99
        _, nearest = cKDTree(anchors).query(data)
        labels = assign_to_clusters(data, result, policy=policy)
        np.testing.assert_array_equal(
            labels[clear], anchor_label[nearest][clear]
        )

    def test_tie_goes_to_lowest_label(self):
        """Clusters 1 and 2 share a representative: every point nearest
        to it gets label 1, whatever the order inside each cluster."""
        shared = np.array([[0.0, 0.0]])
        result = ClusteringResult(
            labels=np.empty(0, dtype=np.int64),
            centers=np.array([[10.0, 10.0], [-5.0, 0.0], [5.0, 0.0]]),
            representatives=[
                np.array([[10.0, 10.0]]),
                np.vstack([[[-5.0, 0.0]], shared]),
                np.vstack([shared, [[5.0, 0.0]]]),
            ],
            sizes=np.array([1, 2, 2]),
        )
        rng = np.random.default_rng(3)
        near_shared = rng.uniform(-1, 1, (300, 2))
        labels = assign_to_clusters(near_shared, result)
        assert (labels == 1).all()
