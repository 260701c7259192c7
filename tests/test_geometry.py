"""Tests for repro.utils.geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Recorder, use_recorder
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

    @pytest.mark.parametrize(
        "radius, n_dims", [(1e200, 2), (1e300, 2), (1e160, 3), (math.inf, 2)]
    )
    def test_overflow_is_infinite(self, radius, n_dims):
        assert ball_volume(radius, n_dims) == math.inf

    def test_large_finite_volume_stays_finite(self):
        assert math.isfinite(ball_volume(1e150, 2))


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


def _reference_counts(centres, points, radius_sq):
    """The per-pair count: every (point, centre) distance, then ``<=``."""
    return (pair_sq_distances(points, centres) <= radius_sq).sum(axis=0)


def _counted(centres, points, radius_sq):
    """``count_within`` and the ``distance_evals`` it records."""
    recorder = Recorder()
    with use_recorder(recorder):
        counts = count_within(centres, points, radius_sq)
    return counts, recorder.counters.get("distance_evals", 0)


@st.composite
def count_cases(draw):
    """Rows, centres and a radius for the ``count_within`` oracle.

    At least 128 centres make a 256-row tile, so more rows than that
    take the cell-pruned route; fewer take the plain tile loop.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    n = draw(st.sampled_from([0, 1, 40, 257, 700, 700]))
    c = draw(st.sampled_from([0, 1, 128, 200, 200]))
    layout = draw(st.sampled_from(["grid", "duplicates", "blobs", "spread"]))
    if layout == "grid":
        # Integer coordinates and integer radii: many pairs sit
        # exactly on the radius.
        pool = rng.integers(-4, 5, size=(n + c, d)).astype(float)
        radius_sq = float(draw(st.sampled_from([1, 2, 4, 9])))
    else:
        if layout == "duplicates":
            base = rng.normal(size=(6, d))
            pool = base[rng.integers(0, 6, size=n + c)]
        elif layout == "blobs":
            pool = rng.normal(size=(n + c, d)) * 0.05 + rng.integers(
                0, 4, size=(n + c, 1)
            )
        else:
            pool = rng.uniform(-3, 3, size=(n + c, d))
        # From one-row cells (tiny radius) to one cell for everything.
        radius_sq = draw(st.sampled_from([1e-12, 0.01, 0.3, 4.0, 1e4]))
    radius_sq = draw(st.sampled_from([radius_sq, radius_sq, 0.0, math.inf]))
    pool = pool + draw(st.sampled_from([0.0, 1e6, 1e8]))
    if n + c and draw(st.booleans()):
        special = [1e300, -1e300, math.inf, -math.inf, math.nan]
        rows = rng.integers(0, n + c, size=rng.integers(1, 6))
        cols = rng.integers(0, d, size=rows.size)
        pool[rows, cols] = rng.choice(special, size=rows.size)
    # Centres are drawn from the same pool, so some coincide with rows.
    picks = rng.integers(0, n + c, size=c) if n + c else np.zeros(0, int)
    return pool[picks], pool[:n], radius_sq


class TestCountWithin:
    @settings(deadline=None, max_examples=150)
    @given(case=count_cases())
    def test_matches_per_pair_count(self, case):
        centres, points, radius_sq = case
        with np.errstate(over="ignore", invalid="ignore"):
            counts, evals = _counted(centres, points, radius_sq)
            expected = _reference_counts(centres, points, radius_sq)
        np.testing.assert_array_equal(counts, expected)
        assert counts.dtype == np.int64
        assert evals <= points.shape[0] * centres.shape[0]

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_pruned_equals_split_plain_calls(self, offset):
        """One pruned call over 3,000 rows equals the sum of 256-row
        calls, each small enough for the plain tile loop."""
        rng = np.random.default_rng(11)
        points = offset + np.vstack(
            [rng.normal(size=(2_000, 2)) * 0.1, rng.uniform(-2, 2, (1_000, 2))]
        )
        centres = points[rng.integers(0, 3_000, size=300)]
        radius_sq = 0.01
        whole, evals = _counted(centres, points, radius_sq)
        parts = []
        for lo in range(0, 3_000, 256):
            part, part_evals = _counted(centres, points[lo : lo + 256], radius_sq)
            assert part_evals == part.size * points[lo : lo + 256].shape[0]
            parts.append(part)
        np.testing.assert_array_equal(whole, np.sum(parts, axis=0))
        np.testing.assert_array_equal(
            whole, _reference_counts(centres, points, radius_sq)
        )
        # The pruned call computed a fraction of the pairs.
        assert evals < 0.5 * points.shape[0] * centres.shape[0]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("radius_sq", [1.0, 2.0, 4.0, 9.0])
    def test_grid_ties_on_the_radius(self, d, radius_sq):
        """Integer grid rows against integer radii: many pairs sit
        exactly on the radius, and box edges sit exactly one radius
        from centres, on the cell-pruned route."""
        side = {1: 900, 2: 30, 3: 10}[d]
        axes = [np.arange(side, dtype=float)] * d
        points = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, d)
        rng = np.random.default_rng(d)
        centres = points[rng.choice(points.shape[0], 200, replace=False)]
        counts, evals = _counted(centres, points, radius_sq)
        np.testing.assert_array_equal(
            counts, _reference_counts(centres, points, radius_sq)
        )
        assert evals < points.shape[0] * centres.shape[0]

    def test_large_cell_runs_in_tiles(self):
        """Every row in one cell: the cell is cut into tile-sized pieces."""
        rng = np.random.default_rng(12)
        points = rng.uniform(0, 1, (1_000, 3))
        centres = np.vstack([points[:150], points[:50] + 5.0])
        counts, evals = _counted(centres, points, 3.0)
        np.testing.assert_array_equal(
            counts, _reference_counts(centres, points, 3.0)
        )
        assert evals == 1_000 * 150


def _special_case(n, c):
    """Rows and centres holding +-inf, NaN and +-1e300 in each column."""
    rng = np.random.default_rng(n + c)
    points = rng.uniform(-2, 2, (n, 2))
    centres = rng.uniform(-2, 2, (c, 2))
    special = [math.inf, -math.inf, math.nan, 1e300, -1e300]
    for k, value in enumerate(special):
        points[2 * k, 0] = points[2 * k + 1, 1] = value
        centres[2 * k, 1] = centres[2 * k + 1, 0] = value
    points[-1] = [math.inf, 0.0]
    return centres, points


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "n, c",
    [(12, 12), (700, 150)],
    ids=["plain-tiles", "cell-pruned"],
)
class TestNonFiniteInputsAreQuiet:
    """Non-finite and huge coordinates give the per-pair oracle's values
    and raise no numpy warning."""

    def test_pair_sq_distances(self, n, c):
        centres, points = _special_case(n, c)
        np.testing.assert_array_equal(
            pair_sq_distances(points, centres),
            naive_sq_distances(points, centres),
        )

    def test_nearest(self, n, c):
        centres, points = _special_case(n, c)
        expected = naive_sq_distances(points, centres)
        best = expected.argmin(axis=1)
        index, sq_dist = nearest(points, centres)
        np.testing.assert_array_equal(index, best)
        np.testing.assert_array_equal(sq_dist, expected[np.arange(n), best])

    @pytest.mark.parametrize("radius_sq", [0.5, 4.0, math.inf])
    def test_count_within(self, n, c, radius_sq):
        centres, points = _special_case(n, c)
        expected = (naive_sq_distances(points, centres) <= radius_sq).sum(axis=0)
        np.testing.assert_array_equal(
            count_within(centres, points, radius_sq), expected
        )


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
