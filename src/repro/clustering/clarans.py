"""CLARANS: K-medoids via randomized search (Ng & Han, VLDB 1994).

The partitional technique the paper cites ([20]) as the classic example
of sampling-accelerated clustering in databases. CLARANS views the
space of medoid sets as a graph (neighbours differ in one medoid) and
performs repeated randomized hill-climbing: from a random node, try up
to ``max_neighbors`` random single-medoid swaps, moving whenever one
improves the cost; a node with no sampled improvement is a local
optimum. The best of ``num_local`` local optima wins.

Like :class:`~repro.clustering.kmedoids.KMedoids` it accepts point
weights, so it can consume inverse-probability-weighted biased samples.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import Clusterer, ClusteringResult
from repro.exceptions import ParameterError
from repro.utils.geometry import pair_sq_distances
from repro.utils.validation import check_array, check_random_state

__all__ = ["Clarans"]


class Clarans(Clusterer):
    """Clustering Large Applications based on RANdomized Search.

    Parameters
    ----------
    n_clusters:
        Number of medoids ``K``.
    num_local:
        Number of independent local searches (the original paper
        recommends 2).
    max_neighbors:
        Random swaps examined before a node is declared a local
        optimum. The original heuristic is ``1.25%`` of ``K * (n - K)``;
        pass ``None`` to use it.
    random_state:
        Seed for node choices and swap sampling.

    Examples
    --------
    >>> import numpy as np
    >>> pts = np.vstack([np.random.default_rng(0).normal(c, 0.1, (50, 2))
    ...                  for c in ((0, 0), (3, 3))])
    >>> result = Clarans(n_clusters=2, random_state=0).fit(pts)
    >>> sorted(result.sizes.tolist())
    [50, 50]
    """

    def __init__(
        self,
        n_clusters: int = 8,
        num_local: int = 2,
        max_neighbors: int | None = None,
        random_state=None,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1; got {n_clusters}.")
        if num_local < 1:
            raise ParameterError(f"num_local must be >= 1; got {num_local}.")
        if max_neighbors is not None and max_neighbors < 1:
            raise ParameterError(
                f"max_neighbors must be >= 1; got {max_neighbors}."
            )
        self.n_clusters = int(n_clusters)
        self.num_local = int(num_local)
        self.max_neighbors = max_neighbors
        self.random_state = random_state
        self.cost_: float | None = None

    def fit(self, points, sample_weight=None) -> ClusteringResult:
        pts = check_array(points, name="points", min_rows=self.n_clusters)
        n = pts.shape[0]
        weights = (
            np.ones(n)
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        if weights.shape != (n,):
            raise ParameterError(
                f"sample_weight must have shape ({n},); got {weights.shape}."
            )
        rng = check_random_state(self.random_state)
        dists = np.sqrt(pair_sq_distances(pts, pts))
        max_neighbors = self._resolve_max_neighbors(n)

        best_cost = np.inf
        best_medoids: np.ndarray | None = None
        for _ in range(self.num_local):
            medoids, cost = self._local_search(
                dists, weights, rng, max_neighbors
            )
            if cost < best_cost:
                best_cost, best_medoids = cost, medoids

        labels = dists[:, best_medoids].argmin(axis=1)
        self.cost_ = float(best_cost)
        centers = pts[best_medoids]
        sizes = np.bincount(labels, minlength=self.n_clusters)
        return ClusteringResult(
            labels=labels,
            centers=centers,
            representatives=[c[None, :] for c in centers],
            sizes=sizes,
        )

    # -- search ---------------------------------------------------------------

    def _resolve_max_neighbors(self, n: int) -> int:
        if self.max_neighbors is not None:
            return self.max_neighbors
        # Ng & Han's heuristic: max(250, 1.25% of K(n-K)).
        return max(250, int(0.0125 * self.n_clusters * (n - self.n_clusters)))

    def _local_search(
        self,
        dists: np.ndarray,
        weights: np.ndarray,
        rng: np.random.Generator,
        max_neighbors: int,
    ) -> tuple[np.ndarray, float]:
        n = dists.shape[0]
        medoids = rng.choice(n, size=self.n_clusters, replace=False)
        cost = self._cost(dists, weights, medoids)
        failures = 0
        while failures < max_neighbors:
            m_pos = rng.integers(self.n_clusters)
            candidate = int(rng.integers(n))
            if candidate in medoids:
                failures += 1
                continue
            trial = medoids.copy()
            trial[m_pos] = candidate
            trial_cost = self._cost(dists, weights, trial)
            if trial_cost < cost - 1e-12:
                medoids, cost = trial, trial_cost
                failures = 0
            else:
                failures += 1
        return medoids, cost

    @staticmethod
    def _cost(
        dists: np.ndarray, weights: np.ndarray, medoids: np.ndarray
    ) -> float:
        nearest = dists[:, medoids].min(axis=1)
        return float(weights @ nearest)
