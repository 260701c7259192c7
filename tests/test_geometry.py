"""Tests for repro.utils.geometry."""

import math

import numpy as np
import pytest

from repro.utils.geometry import (
    ball_volume,
    pair_sq_distances,
    pairwise_sq_distances,
    sq_distances_to,
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


class TestPairwiseDistances:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        fast = pairwise_sq_distances(pts)
        naive = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(fast, naive, atol=1e-10)

    def test_diagonal_near_zero(self):
        pts = np.random.default_rng(1).normal(size=(10, 2))
        diag = np.diag(pairwise_sq_distances(pts))
        assert (diag >= 0).all()
        assert (diag < 1e-10).all()

    def test_never_negative(self):
        pts = np.full((5, 2), 3.14159)
        assert (pairwise_sq_distances(pts) >= 0).all()


class TestSqDistancesTo:
    def test_matches_naive(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(5, 4))
        fast = sq_distances_to(a, b)
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(fast, naive, atol=1e-10)

    def test_shape(self):
        a, b = np.zeros((3, 2)), np.zeros((4, 2))
        assert sq_distances_to(a, b).shape == (3, 4)


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
        """At offset 1e8 the result stays exact; the Gram expansion does not."""
        rng = np.random.default_rng(5)
        a = 1e8 + rng.random((8, 2))
        b = 1e8 + rng.random((9, 2))
        ref = np.array(
            [[math.fsum((x - y) ** 2 for x, y in zip(p, q)) for q in b] for p in a]
        )
        rel = np.abs(pair_sq_distances(a, b) - ref) / ref
        assert rel.max() <= 1e-12
        gram = np.abs(sq_distances_to(a, b) - ref) / ref
        assert gram.max() > 1e-12

    def test_shape_and_empty(self):
        assert pair_sq_distances(np.zeros((3, 2)), np.zeros((4, 2))).shape == (3, 4)
        assert pair_sq_distances(np.zeros((0, 2)), np.zeros((4, 2))).shape == (0, 4)
