"""Weighted Lloyd K-means with k-means++ initialisation.

Supports per-point weights so a density-biased sample can be clustered
with inverse-probability weighting (section 3.1 of the paper): the
weighted criterion ``sum_i w_i dist(x_i, m(x_i))^2`` is then an unbiased
estimate of the full-dataset K-means criterion.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.clustering.base import Clusterer, ClusteringResult
from repro.exceptions import ConvergenceWarning, DataValidationError, ParameterError
from repro.utils.geometry import nearest
from repro.utils.validation import check_array, check_random_state

__all__ = ["KMeans"]


class KMeans(Clusterer):
    """Lloyd's algorithm with weighted updates.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``K``.
    n_init:
        Independent restarts; the run with the lowest weighted inertia
        wins.
    max_iter, tol:
        Lloyd iteration budget and center-shift stopping tolerance.
    random_state:
        Seed for k-means++ and restarts.

    Examples
    --------
    >>> import numpy as np
    >>> pts = np.vstack([np.zeros((50, 2)), np.ones((50, 2)) * 5])
    >>> result = KMeans(n_clusters=2, random_state=0).fit(pts)
    >>> sorted(result.sizes.tolist())
    [50, 50]
    """

    def __init__(
        self,
        n_clusters: int = 8,
        n_init: int = 4,
        max_iter: int = 300,
        tol: float = 1e-6,
        random_state=None,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1; got {n_clusters}.")
        if n_init < 1:
            raise ParameterError(f"n_init must be >= 1; got {n_init}.")
        self.n_clusters = int(n_clusters)
        self.n_init = int(n_init)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.random_state = random_state
        self.inertia_: float | None = None

    # -- public API ----------------------------------------------------------

    def fit(self, points, sample_weight=None) -> ClusteringResult:
        pts = check_array(points, name="points", min_rows=self.n_clusters)
        weights = self._check_weights(pts, sample_weight)
        rng = check_random_state(self.random_state)

        best_inertia = np.inf
        best_centers = None
        best_labels = None
        for _ in range(self.n_init):
            centers = self._kmeanspp(pts, weights, rng)
            centers, labels, inertia = self._lloyd(pts, weights, centers)
            if inertia < best_inertia:
                best_inertia, best_centers, best_labels = inertia, centers, labels

        self.inertia_ = float(best_inertia)
        sizes = np.bincount(best_labels, minlength=self.n_clusters)
        return ClusteringResult(
            labels=best_labels,
            centers=best_centers,
            representatives=[c[None, :] for c in best_centers],
            sizes=sizes,
        )

    def predict(self, points, centers) -> np.ndarray:
        """Nearest-center labels for new points; ties go to the lower label."""
        pts = check_array(points, name="points")
        centers = check_array(centers, name="centers")
        if centers.shape[1] != pts.shape[1]:
            raise DataValidationError(
                f"KMeans.predict: points have d={pts.shape[1]} but the "
                f"centers have d={centers.shape[1]}."
            )
        return nearest(pts, centers)[0]

    # -- internals -------------------------------------------------------------

    def _check_weights(self, pts: np.ndarray, sample_weight) -> np.ndarray:
        if sample_weight is None:
            return np.ones(pts.shape[0])
        weights = np.asarray(sample_weight, dtype=np.float64)
        if weights.shape != (pts.shape[0],):
            raise ParameterError(
                f"sample_weight must have shape ({pts.shape[0]},); "
                f"got {weights.shape}."
            )
        if (weights < 0).any() or weights.sum() <= 0:
            raise ParameterError(
                "sample_weight must be non-negative with positive total."
            )
        return weights

    def _kmeanspp(
        self, pts: np.ndarray, weights: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Weighted k-means++ seeding."""
        n = pts.shape[0]
        centers = np.empty((self.n_clusters, pts.shape[1]))
        probs = weights / weights.sum()
        first = rng.choice(n, p=probs)
        centers[0] = pts[first]
        _, closest_sq = nearest(pts, centers[:1])
        for i in range(1, self.n_clusters):
            scores = weights * closest_sq
            total = scores.sum()
            if total <= 0:
                # All mass already on chosen centers; pick uniformly.
                idx = rng.integers(n)
            else:
                idx = rng.choice(n, p=scores / total)
            centers[i] = pts[idx]
            _, new_sq = nearest(pts, centers[i : i + 1])
            np.minimum(closest_sq, new_sq, out=closest_sq)
        return centers

    def _lloyd(
        self, pts: np.ndarray, weights: np.ndarray, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        for _ in range(self.max_iter):
            labels, sq_dist = nearest(pts, centers)
            new_centers = centers.copy()
            for k in range(self.n_clusters):
                mask = labels == k
                mass = weights[mask].sum()
                if mass > 0:
                    new_centers[k] = np.average(
                        pts[mask], axis=0, weights=weights[mask]
                    )
                else:
                    # Reseed an empty cluster at the worst-served point.
                    worst = sq_dist.argmax()
                    new_centers[k] = pts[worst]
            shift = np.linalg.norm(new_centers - centers, axis=1).max()
            centers = new_centers
            if shift <= self.tol:
                break
        else:
            warnings.warn(
                f"KMeans did not converge in {self.max_iter} iterations.",
                ConvergenceWarning,
                stacklevel=2,
            )
        labels, sq_dist = nearest(pts, centers)
        inertia = float((weights * sq_dist).sum())
        return centers, labels, inertia
