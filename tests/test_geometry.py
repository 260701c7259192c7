"""Tests for repro.utils.geometry."""

import math

import numpy as np
import pytest

from repro.utils.geometry import (
    ball_volume,
    count_within,
    nearest,
    pair_sq_distances,
)


class TestBallVolume:
    def test_known_values(self):
        assert ball_volume(1.0, 1) == pytest.approx(2.0)
        assert ball_volume(1.0, 2) == pytest.approx(math.pi)
        assert ball_volume(1.0, 3) == pytest.approx(4.0 / 3.0 * math.pi)

    def test_radius_scaling(self):
        assert ball_volume(2.0, 3) == pytest.approx(8 * ball_volume(1.0, 3))

    def test_zero_radius(self):
        assert ball_volume(0.0, 4) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ball_volume(1.0, 0)
        with pytest.raises(ValueError):
            ball_volume(-1.0, 2)


def naive_sq_distances(a, b):
    """Coordinate-by-coordinate sums in Python floats, one pair at a time."""
    out = np.empty((len(a), len(b)))
    for i, p in enumerate(a.tolist()):
        for j, q in enumerate(b.tolist()):
            acc = 0.0
            for x, y in zip(p, q):
                acc += (x - y) * (x - y)
            out[i, j] = acc
    return out


class TestPairwiseDistances:
    """All-pairs matrices, ``pair_sq_distances(pts, pts)``."""

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(
            pair_sq_distances(pts, pts), naive_sq_distances(pts, pts)
        )

    def test_bitwise_symmetric(self):
        pts = np.random.default_rng(1).normal(1e6, 1.0, size=(15, 3))
        d = pair_sq_distances(pts, pts)
        np.testing.assert_array_equal(d, d.T)

    def test_diagonal_near_zero(self):
        pts = np.random.default_rng(1).normal(size=(10, 2))
        assert (np.diag(pair_sq_distances(pts, pts)) == 0.0).all()

    def test_never_negative(self):
        pts = np.full((5, 2), 3.14159)
        assert (pair_sq_distances(pts, pts) == 0.0).all()


class TestSqDistancesTo:
    """Cross distances between two different sets of points."""

    def test_matches_naive(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(
            pair_sq_distances(a, b), naive_sq_distances(a, b)
        )

    def test_shape(self):
        a, b = np.zeros((3, 2)), np.zeros((4, 2))
        assert pair_sq_distances(a, b).shape == (3, 4)


class TestPairSqDistances:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(3)
        return rng.normal(size=(40, 3)), rng.normal(size=(23, 3))

    def test_matches_naive(self, pair):
        a, b = pair
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(pair_sq_distances(a, b), naive, rtol=1e-14)

    def test_bitwise_symmetric(self, pair):
        a, b = pair
        np.testing.assert_array_equal(
            pair_sq_distances(a, b), pair_sq_distances(b, a).T
        )

    @pytest.mark.parametrize("width", [1, 7, 23])
    def test_bitwise_shape_invariant(self, pair, width):
        a, b = pair
        blocks = [
            pair_sq_distances(a, b[start : start + width])
            for start in range(0, b.shape[0], width)
        ]
        np.testing.assert_array_equal(
            np.hstack(blocks), pair_sq_distances(a, b)
        )

    def test_duplicates_exactly_zero(self):
        pts = np.random.default_rng(4).normal(1e6, 1.0, size=(6, 4))
        assert (np.diag(pair_sq_distances(pts, pts)) == 0.0).all()

    def test_exact_far_from_origin(self):
        """At offset 1e8 the result stays exact."""
        rng = np.random.default_rng(5)
        a = 1e8 + rng.random((8, 2))
        b = 1e8 + rng.random((9, 2))
        ref = np.array(
            [[math.fsum((x - y) ** 2 for x, y in zip(p, q)) for q in b] for p in a]
        )
        rel = np.abs(pair_sq_distances(a, b) - ref) / ref
        assert rel.max() <= 1e-12

    def test_shape_and_empty(self):
        assert pair_sq_distances(np.zeros((3, 2)), np.zeros((4, 2))).shape == (3, 4)
        assert pair_sq_distances(np.zeros((0, 2)), np.zeros((4, 2))).shape == (0, 4)


class TestNearest:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(6)
        return rng.normal(size=(600, 3)), rng.normal(size=(17, 3))

    def test_matches_pair_sq_distances(self, pair):
        points, anchors = pair
        full = pair_sq_distances(points, anchors)
        index, sq_dist = nearest(points, anchors)
        np.testing.assert_array_equal(index, full.argmin(axis=1))
        np.testing.assert_array_equal(sq_dist, full.min(axis=1))

    def test_ties_go_to_lowest_index(self):
        anchors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        index, sq_dist = nearest(points, anchors)
        np.testing.assert_array_equal(index, [0, 0, 1])
        np.testing.assert_array_equal(sq_dist, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "n_rows, n_anchors",
        # 130 anchors give 256-row tiles; 5 anchors give 6553-row tiles.
        [(1, 130), (255, 130), (257, 130), (600, 130), (7000, 5)],
    )
    def test_tiling_and_splitting_invariant(self, n_rows, n_anchors):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(n_rows, 2))
        anchors = rng.normal(size=(n_anchors, 2))
        whole = nearest(points, anchors)
        full = pair_sq_distances(points, anchors)
        np.testing.assert_array_equal(whole[0], full.argmin(axis=1))
        np.testing.assert_array_equal(whole[1], full.min(axis=1))
        cuts = [0, n_rows // 3, n_rows // 3 + 1, n_rows]
        parts = [nearest(points[lo:hi], anchors) for lo, hi in zip(cuts, cuts[1:])]
        for k in (0, 1):
            joined = np.concatenate([part[k] for part in parts])
            np.testing.assert_array_equal(joined, whole[k])


@pytest.mark.parametrize(
    "call",
    [
        lambda: pair_sq_distances(np.zeros((2, 2)), np.ones((3, 3))),
        lambda: nearest(np.zeros((2, 2)), np.ones((3, 3))),
        lambda: count_within(np.zeros((2, 2)), np.ones((3, 3)), 1.0),
    ],
    ids=["pair_sq_distances", "nearest", "count_within"],
)
def test_rejects_column_mismatch(call):
    with pytest.raises(ValueError, match=r"\(2, 2\) and \(3, 3\)"):
        call()
