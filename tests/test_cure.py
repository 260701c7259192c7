"""Tests for CURE-style hierarchical clustering."""

import numpy as np
import pytest

from repro.clustering import AgglomerativeClustering, CureClustering
from repro.clustering import cure
from repro.clustering.cure import select_scattered_points
from repro.exceptions import ParameterError
from repro.utils.geometry import pair_sq_distances


@pytest.fixture
def blobs():
    rng = np.random.default_rng(0)
    return np.vstack(
        [rng.normal(c, 0.06, size=(80, 2))
         for c in ((0, 0), (1.5, 0), (0, 1.5), (1.5, 1.5))]
    )


class TestScatteredPoints:
    def test_returns_all_when_few(self):
        pts = np.random.default_rng(0).random((5, 2))
        reps = select_scattered_points(pts, pts.mean(axis=0), 10)
        assert reps.shape == (5, 2)

    def test_count_respected(self):
        pts = np.random.default_rng(0).random((100, 2))
        reps = select_scattered_points(pts, pts.mean(axis=0), 7)
        assert reps.shape == (7, 2)

    def test_picks_extremes_of_a_segment(self):
        pts = np.column_stack([np.linspace(0, 1, 50), np.zeros(50)])
        reps = select_scattered_points(pts, pts.mean(axis=0), 2)
        xs = sorted(reps[:, 0])
        assert xs[0] == 0.0 and xs[1] == 1.0

    def test_scattered_points_spread(self):
        """Scattered picks cover the data better than random picks."""
        rng = np.random.default_rng(1)
        pts = rng.random((300, 2))
        reps = select_scattered_points(pts, pts.mean(axis=0), 10)
        min_pair = np.sqrt(
            pair_sq_distances(reps, reps)[~np.eye(10, dtype=bool)].min()
        )
        assert min_pair > 0.15


class TestClustering:
    def test_recovers_blobs(self, blobs):
        result = CureClustering(n_clusters=4).fit(blobs)
        assert result.n_clusters == 4
        # Each center must sit near a distinct blob center.
        targets = np.array([(0, 0), (1.5, 0), (0, 1.5), (1.5, 1.5)])
        matched = {
            int(np.linalg.norm(targets - c, axis=1).argmin())
            for c in result.centers
        }
        assert matched == {0, 1, 2, 3}

    def test_representatives_shrunk_toward_mean(self, blobs):
        result = CureClustering(
            n_clusters=4, shrink_factor=0.9, remove_outliers=False
        ).fit(blobs)
        for reps, center in zip(result.representatives, result.centers):
            spread = np.linalg.norm(reps - center, axis=1).max()
            assert spread < 0.1  # alpha=0.9 pulls reps close to the mean

    def test_representative_count_capped(self, blobs):
        result = CureClustering(n_clusters=4, n_representatives=6).fit(blobs)
        assert all(reps.shape[0] <= 6 for reps in result.representatives)

    def test_nonspherical_clusters(self):
        """Two parallel elongated clusters: centroid-based K-means-style
        methods struggle, CURE's scattered reps must separate them."""
        rng = np.random.default_rng(2)
        top = np.column_stack(
            [rng.uniform(0, 4, 300), rng.normal(1.0, 0.05, 300)]
        )
        bottom = np.column_stack(
            [rng.uniform(0, 4, 300), rng.normal(0.0, 0.05, 300)]
        )
        pts = np.vstack([top, bottom])
        result = CureClustering(n_clusters=2, remove_outliers=False).fit(pts)
        labels_top = result.labels[:300]
        labels_bottom = result.labels[300:]
        # Majority label of each stripe must differ and be nearly pure.
        top_label = np.bincount(labels_top[labels_top >= 0]).argmax()
        bottom_label = np.bincount(labels_bottom[labels_bottom >= 0]).argmax()
        assert top_label != bottom_label
        assert (labels_top == top_label).mean() > 0.9
        assert (labels_bottom == bottom_label).mean() > 0.9

    def test_outlier_elimination_drops_noise(self):
        rng = np.random.default_rng(3)
        blob_a = rng.normal((0, 0), 0.05, size=(150, 2))
        blob_b = rng.normal((2, 2), 0.05, size=(150, 2))
        noise = rng.uniform(-1, 3, size=(20, 2))
        pts = np.vstack([blob_a, blob_b, noise])
        result = CureClustering(n_clusters=2, remove_outliers=True).fit(pts)
        # Noise points should largely end up unlabelled (-1).
        noise_labels = result.labels[300:]
        assert (noise_labels == -1).mean() > 0.5

    def test_no_outlier_removal_labels_everything(self, blobs):
        result = CureClustering(n_clusters=4, remove_outliers=False).fit(blobs)
        assert (result.labels >= 0).all()

    def test_sizes_sorted_descending(self, blobs):
        result = CureClustering(n_clusters=4).fit(blobs)
        assert (np.diff(result.sizes) <= 0).all()

    def test_single_cluster(self, blobs):
        result = CureClustering(n_clusters=1, remove_outliers=False).fit(blobs)
        assert result.n_clusters == 1
        assert result.sizes[0] == blobs.shape[0]

    def test_n_clusters_geq_points(self):
        pts = np.random.default_rng(0).random((5, 2))
        result = CureClustering(n_clusters=10, remove_outliers=False).fit(pts)
        assert result.n_clusters == 5

    def test_rejects_sample_weight(self, blobs):
        with pytest.raises(ParameterError, match="sample_weight"):
            CureClustering(n_clusters=2).fit(blobs, sample_weight=np.ones(320))

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            CureClustering(n_clusters=0)
        with pytest.raises(ParameterError):
            CureClustering(n_representatives=0)
        with pytest.raises(ParameterError):
            CureClustering(shrink_factor=1.5)

    def test_matches_single_link_limit(self):
        """With 1 representative and no shrinking CURE degenerates to
        centroid-anchored merging; sanity-check it still partitions
        separated blobs like plain agglomerative clustering."""
        rng = np.random.default_rng(4)
        pts = np.vstack(
            [rng.normal(c, 0.05, size=(40, 2)) for c in ((0, 0), (3, 3))]
        )
        cure = CureClustering(
            n_clusters=2, n_representatives=1, shrink_factor=0.0,
            remove_outliers=False,
        ).fit(pts)
        agg = AgglomerativeClustering(n_clusters=2, linkage="single").fit(pts)
        agreement = (cure.labels == agg.labels).mean()
        assert agreement in (0.0, 1.0) or agreement > 0.95  # up to relabel


def _result_bytes(result):
    return (
        result.labels.tobytes(),
        result.centers.tobytes(),
        [reps.tobytes() for reps in result.representatives],
        result.sizes.tobytes(),
    )


class TestDistanceCache:
    """The cached rescans against the pool-sweep fallback above the cap."""

    @staticmethod
    def _points(kind, d):
        rng = np.random.default_rng(d)
        pts = np.vstack(
            [rng.normal(rng.random(d), 0.05, size=(30, d)) for _ in range(3)]
        )
        if kind == "duplicates":
            return np.repeat(pts[:30], 3, axis=0)
        if kind == "grid":  # tie-heavy
            return np.round(pts * 8) / 8
        return pts

    @pytest.mark.parametrize("remove_outliers", [True, False])
    @pytest.mark.parametrize("kind", ["blobs", "duplicates", "grid"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_cache_equals_sweep(self, monkeypatch, d, kind, remove_outliers):
        pts = self._points(kind, d)
        model = dict(n_clusters=4, n_representatives=5,
                     remove_outliers=remove_outliers)
        cached = CureClustering(**model).fit(pts)
        monkeypatch.setattr(cure, "_DIST_CACHE_CAP", 0)
        swept = CureClustering(**model).fit(pts)
        assert _result_bytes(cached) == _result_bytes(swept)

    @pytest.mark.parametrize("block_pairs", [1, 50, 1 << 16])
    def test_startup_pass_matches_brute_force(self, monkeypatch, block_pairs):
        """Nearest neighbours (ties: smallest id) and cache across blocks."""
        monkeypatch.setattr(cure, "_STARTUP_BLOCK_PAIRS", block_pairs)
        pts = np.round(np.random.default_rng(7).random((60, 2)) * 3) / 3
        n = pts.shape[0]
        full = np.sqrt(pair_sq_distances(pts, pts))
        np.fill_diagonal(full, np.inf)
        model = CureClustering()
        model._init_state(pts)
        np.testing.assert_array_equal(model._closest_id[:n], full.argmin(axis=1))
        np.testing.assert_array_equal(model._closest_dist[:n], full.min(axis=1))
        rows, cols = np.tril_indices(n, k=-1)
        np.testing.assert_array_equal(model._cache[:-1], full[rows, cols])

    def test_sweep_count_pinned(self, monkeypatch):
        """Below the cap: one sweep per start-up block and per merge only."""
        monkeypatch.setattr(cure, "_STARTUP_BLOCK_PAIRS", 1000)
        n = 200
        pts = np.random.default_rng(0).random((n, 2))
        model = CureClustering(n_clusters=5, remove_outliers=False)
        model.fit(pts)
        rows_per_block = 1000 // n
        blocks = -(-(n - 1) // rows_per_block)
        assert model.n_distance_sweeps_ == (n - 5) + blocks
        monkeypatch.setattr(cure, "_DIST_CACHE_CAP", 0)
        model.fit(pts)
        assert model.n_distance_sweeps_ > (n - 5) + blocks  # rescans sweep

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
    def test_two_blobs_far_from_origin(self, offset):
        """Blobs 1e-3 apart stay separable at any common offset."""
        rng = np.random.default_rng(0)
        pts = np.vstack(
            [
                rng.normal(0.0, 1e-5, size=(60, 2)),
                rng.normal(0.0, 1e-5, size=(60, 2)) + [1e-3, 0.0],
            ]
        ) + offset
        result = CureClustering(n_clusters=2, remove_outliers=False).fit(pts)
        assert result.sizes.tolist() == [60, 60]
        assert len(set(result.labels[:60])) == 1
        assert len(set(result.labels[60:])) == 1

    @pytest.mark.parametrize("cap", [0, 2048])
    @pytest.mark.parametrize("n_clusters", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_inputs(self, monkeypatch, cap, n_clusters, n):
        monkeypatch.setattr(cure, "_DIST_CACHE_CAP", cap)
        pts = np.random.default_rng(n).random((n, 2))
        result = CureClustering(n_clusters=n_clusters).fit(pts)
        assert result.n_clusters == min(n, n_clusters)
        assert (result.labels >= 0).all()
        assert result.sizes.sum() == n
