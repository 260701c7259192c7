"""Tests for DB(p, k) outlier detection (exact and approximate)."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.datasets import make_outlier_dataset
from repro.exceptions import ParameterError
from repro.outliers import (
    ApproximateOutlierDetector,
    CellBasedOutlierDetector,
    IndexedOutlierDetector,
    NestedLoopOutlierDetector,
    is_db_outlier_count,
)
from repro.outliers.base import resolve_p
from repro.utils.geometry import count_within
from repro.utils.streams import DataStream


@pytest.fixture
def simple_case():
    """A tight blob plus two isolated points: unambiguous outliers."""
    rng = np.random.default_rng(0)
    blob = rng.normal(0.0, 0.05, size=(300, 2))
    outliers = np.array([[3.0, 3.0], [-3.0, 2.0]])
    return np.vstack([blob, outliers]), {300, 301}


class TestDefinitions:
    def test_predicate(self):
        assert is_db_outlier_count(0, p=0)
        assert is_db_outlier_count(5, p=5)
        assert not is_db_outlier_count(6, p=5)

    def test_resolve_p_exclusive_args(self):
        with pytest.raises(ParameterError, match="exactly one"):
            resolve_p(None, None, 100)
        with pytest.raises(ParameterError, match="exactly one"):
            resolve_p(3, 0.1, 100)

    def test_resolve_fraction(self):
        assert resolve_p(None, 0.05, 200) == 10

    def test_resolve_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            resolve_p(-1, None, 100)
        with pytest.raises(ParameterError):
            resolve_p(None, 1.0, 100)


class TestExactDetectors:
    def test_nested_loop_finds_isolated(self, simple_case):
        data, truth = simple_case
        result = NestedLoopOutlierDetector(k=0.5, p=0).detect(data)
        assert set(result.indices.tolist()) == truth

    def test_indexed_finds_isolated(self, simple_case):
        data, truth = simple_case
        result = IndexedOutlierDetector(k=0.5, p=0).detect(data)
        assert set(result.indices.tolist()) == truth

    def test_detectors_agree(self):
        rng = np.random.default_rng(1)
        data = rng.random((500, 3))
        for k, p in ((0.1, 2), (0.2, 5), (0.05, 0)):
            nested = NestedLoopOutlierDetector(k=k, p=p).detect(data)
            indexed = IndexedOutlierDetector(k=k, p=p).detect(data)
            np.testing.assert_array_equal(nested.indices, indexed.indices)
            np.testing.assert_array_equal(
                nested.neighbor_counts, indexed.neighbor_counts
            )

    def test_small_blocks_equal_big_blocks(self, simple_case):
        data, _ = simple_case
        small = NestedLoopOutlierDetector(k=0.5, p=0, block_size=7).detect(
            data
        )
        big = NestedLoopOutlierDetector(k=0.5, p=0, block_size=100_000).detect(
            data
        )
        np.testing.assert_array_equal(small.indices, big.indices)

    def test_self_not_counted(self):
        data = np.array([[0.0, 0.0], [10.0, 0.0]])
        result = IndexedOutlierDetector(k=1.0, p=0).detect(data)
        # Both points have zero neighbours within k=1: both are outliers.
        assert len(result) == 2
        assert (result.neighbor_counts == 0).all()

    def test_fraction_parameterisation(self, simple_case):
        data, truth = simple_case
        result = IndexedOutlierDetector(k=0.5, fraction=0.001).detect(data)
        assert set(result.indices.tolist()) == truth

    def test_p_large_makes_everything_outlier(self):
        data = np.random.default_rng(2).random((50, 2))
        result = IndexedOutlierDetector(k=0.1, p=50).detect(data)
        assert len(result) == 50

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            NestedLoopOutlierDetector(k=0.0, p=1)


class TestApproximateDetector:
    def test_matches_exact_on_planted(self):
        data = make_outlier_dataset(
            n_points=4000, n_outliers=12, random_state=1
        )
        k = data.guaranteed_radius
        approx = ApproximateOutlierDetector(k=k, p=0, random_state=0).detect(
            data.points
        )
        exact = IndexedOutlierDetector(k=k, p=0).detect(data.points)
        assert set(approx.indices.tolist()) == set(exact.indices.tolist())

    def test_verification_guarantees_precision(self, simple_case):
        """Everything reported must truly satisfy the DB predicate."""
        data, _ = simple_case
        result = ApproximateOutlierDetector(
            k=0.5, p=0, random_state=0
        ).detect(data)
        exact = IndexedOutlierDetector(k=0.5, p=0).detect(data)
        assert set(result.indices.tolist()) <= set(exact.indices.tolist())

    def test_pass_budget(self, simple_case):
        """Fit + screen + verify <= 3 passes (the paper's budget)."""
        data, _ = simple_case
        stream = DataStream(data)
        ApproximateOutlierDetector(k=0.5, p=0, random_state=0).detect(
            None, stream=stream
        )
        assert stream.passes <= 3

    def test_screening_shrinks_candidates(self):
        data = make_outlier_dataset(
            n_points=5000, n_outliers=10, random_state=2
        )
        result = ApproximateOutlierDetector(
            k=data.guaranteed_radius, p=0, random_state=0
        ).detect(data.points)
        assert result.n_candidates < data.n_points * 0.05

    def test_montecarlo_screen(self, simple_case):
        data, truth = simple_case
        result = ApproximateOutlierDetector(
            k=0.5, p=0, screen="montecarlo", n_mc=64, random_state=0
        ).detect(data)
        assert set(result.indices.tolist()) == truth

    def test_count_estimate_in_right_ballpark(self):
        data = make_outlier_dataset(
            n_points=5000, n_outliers=25, random_state=3
        )
        estimate = ApproximateOutlierDetector(
            k=data.guaranteed_radius, p=0, random_state=0
        ).estimate_outlier_count(data.points)
        assert 5 <= estimate <= 250  # one-pass estimate, order of magnitude

    def test_no_outliers_case(self):
        data = np.random.default_rng(4).normal(0, 0.05, size=(500, 2))
        result = ApproximateOutlierDetector(
            k=1.0, p=0, random_state=0
        ).detect(data)
        assert len(result) == 0

    def test_huge_radius_agrees_with_nested_loop(self):
        """A radius whose ball volume overflows screens every point as
        dense, and the verify confirms: no outliers, as the oracle says."""
        data = np.random.default_rng(0).random((300, 2))
        approx = ApproximateOutlierDetector(
            k=1e300, p=5, random_state=0
        ).detect(data)
        exact = NestedLoopOutlierDetector(k=1e300, p=5).detect(data)
        np.testing.assert_array_equal(approx.indices, exact.indices)
        assert approx.indices.size == 0

    def test_rejects_bad_screen(self):
        with pytest.raises(ParameterError, match="screen"):
            ApproximateOutlierDetector(k=0.1, p=0, screen="exact")

    def test_neighbor_counts_verified(self, simple_case):
        data, _ = simple_case
        result = ApproximateOutlierDetector(
            k=0.5, p=0, random_state=0
        ).detect(data)
        exact = IndexedOutlierDetector(k=0.5, p=0).detect(data)
        exact_counts = dict(zip(exact.indices.tolist(),
                                exact.neighbor_counts.tolist()))
        for idx, count in zip(result.indices.tolist(),
                              result.neighbor_counts.tolist()):
            assert exact_counts[idx] == count


def _brute_counts(points, k):
    """Neighbour counts from coordinatewise squared differences."""
    d = ((points[:, None] - points[None]) ** 2).sum(-1)
    return (d <= k * k).sum(axis=1) - 1


class TestFarFromOrigin:
    """Counts must not depend on how far the data sit from the origin.

    The Gram expansion ``|x|^2 + |y|^2 - 2 x.y`` cancels
    catastrophically at large offsets; every detector here counts from
    exact per-coordinate differences instead.
    """

    P = 5

    @pytest.fixture(scope="class")
    def planted(self):
        return make_outlier_dataset(
            n_points=1500, n_outliers=10, random_state=5
        )

    @pytest.fixture(params=[0.0, 1e6, 1e8], ids=["0", "1e6", "1e8"])
    def shifted(self, request, planted):
        points = planted.points + request.param
        k = planted.guaranteed_radius
        return points, k, _brute_counts(points, k)

    def _assert_exact(self, result, truth):
        expected = np.nonzero(truth <= self.P)[0]
        np.testing.assert_array_equal(result.indices, expected)
        np.testing.assert_array_equal(result.neighbor_counts, truth[expected])

    def test_verify_counts(self, shifted):
        """Counts up to ``p`` are exact; the rest stop somewhere above it."""
        points, k, truth = shifted
        detector = ApproximateOutlierDetector(k=k, p=self.P)
        counts = detector._verify(
            DataStream(points, chunk_size=512), points, self.P
        )
        low = truth <= self.P
        np.testing.assert_array_equal(counts[low], truth[low])
        assert (counts[~low] > self.P).all()
        assert (counts[~low] <= truth[~low]).all()

    def test_count_within(self, shifted):
        """Full exact counts at every offset, self included."""
        points, k, truth = shifted
        np.testing.assert_array_equal(
            count_within(points, points, k * k), truth + 1
        )

    def test_approximate(self, shifted, planted):
        points, k, truth = shifted
        result = ApproximateOutlierDetector(
            k=k, p=self.P, random_state=0
        ).detect(points)
        np.testing.assert_array_equal(
            result.neighbor_counts, truth[result.indices]
        )
        assert set(planted.outlier_indices.tolist()) <= set(
            result.indices.tolist()
        )
        assert (truth[result.indices] <= self.P).all()

    @pytest.mark.parametrize("block_size", [128, 4096])
    def test_nested_loop(self, shifted, block_size):
        points, k, truth = shifted
        result = NestedLoopOutlierDetector(
            k=k, p=self.P, block_size=block_size
        ).detect(points)
        self._assert_exact(result, truth)

    def test_cell_based(self, shifted):
        points, k, truth = shifted
        result = CellBasedOutlierDetector(k=k, p=self.P).detect(points)
        self._assert_exact(result, truth)


class TestVerifyEarlyExit:
    """A candidate past ``p`` neighbours leaves the verify early."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_counts_exact_up_to_p(self, chunk_size):
        rng = np.random.default_rng(9)
        points = rng.random((200, 2))
        k, p = 0.08, 3
        truth = _brute_counts(points, k)
        assert (truth == p).any() and (truth == p + 1).any()
        counts = ApproximateOutlierDetector(k=k, p=p)._verify(
            DataStream(points, chunk_size=chunk_size), points, p
        )
        low = truth <= p
        np.testing.assert_array_equal(counts[low], truth[low])
        assert (counts[~low] > p).all()
        assert (counts[~low] <= truth[~low]).all()

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_detect_matches_nested_loop(self, chunk_size):
        points = np.random.default_rng(9).random((200, 2))
        result = ApproximateOutlierDetector(
            k=0.08, p=3, candidate_quantile=1.0, random_state=0
        ).detect(None, stream=DataStream(points, chunk_size=chunk_size))
        exact = NestedLoopOutlierDetector(k=0.08, p=3).detect(points)
        np.testing.assert_array_equal(result.indices, exact.indices)
        np.testing.assert_array_equal(
            result.neighbor_counts, exact.neighbor_counts
        )


class TestVerifyMemory:
    def test_peak_allocation_is_bounded(self):
        """The verify pass allocates O(tile * b), not O(chunk * b).

        600 candidates against one 16,384-row chunk: a dense distance
        matrix would be 78 MB per temporary; the tiled count needs
        about 2.6 MB.
        """
        rng = np.random.default_rng(0)
        data = rng.random((16_384, 2))
        candidates = data[:600].copy()
        stream = DataStream(data, chunk_size=16_384)
        detector = ApproximateOutlierDetector(k=0.05, p=5)
        tracemalloc.start()
        try:
            detector._verify(stream, candidates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class _FirstCoordinateDensity:
    """Fitted stand-in estimator: a row's density is its first coordinate."""

    n_points_ = 1
    n_dims_ = 2

    def evaluate(self, points):
        return points[:, 0].copy()


class TestScreenSelection:
    def test_sparsest_quota_matches_reference(self):
        """The quota keeps the lowest ``(value, row index)`` pairs, with
        heavily tied values spread over many chunks."""
        rng = np.random.default_rng(7)
        n = 500
        values = rng.integers(1, 6, n).astype(float)
        # A few lower values arriving late must displace the highest
        # *row indices* of the tied boundary value, not the lowest.
        values[rng.choice(np.arange(n // 2, n), 8, replace=False)] = 0.5
        data = np.column_stack([values, rng.random(n)])
        # k = 1/sqrt(pi) makes the 2-D ball volume 1, so N' = value, and
        # slack 0.25 with p = 0 puts no row below the threshold: the
        # candidates are exactly the quota.
        detector = ApproximateOutlierDetector(
            k=1.0 / math.sqrt(math.pi), p=0, slack=0.25,
            candidate_quantile=0.1,
        )
        indices, points = detector._screen(
            DataStream(data, chunk_size=37), _FirstCoordinateDensity(), 0
        )
        by_rank = sorted(range(n), key=lambda i: (values[i], i))
        assert indices.tolist() == sorted(by_rank[: math.ceil(0.1 * n)])
        np.testing.assert_array_equal(points, data[indices])
