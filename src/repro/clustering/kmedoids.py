"""K-medoids (PAM: build + swap) with optional point weights.

Included because section 3.1 discusses running K-medoids on biased
samples with inverse-probability weights. The implementation is the
classic Partitioning Around Medoids: a greedy BUILD phase followed by
steepest-descent SWAP, with the swap gain evaluated vectorised over all
(medoid, candidate) pairs. Quadratic memory — intended for samples, not
raw datasets, exactly like the paper's usage.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import Clusterer, ClusteringResult
from repro.exceptions import ParameterError
from repro.utils.geometry import pair_sq_distances
from repro.utils.validation import check_array

__all__ = ["KMedoids"]


class KMedoids(Clusterer):
    """Partitioning Around Medoids on Euclidean distances.

    Parameters
    ----------
    n_clusters:
        Number of medoids ``K``.
    max_swaps:
        Upper bound on SWAP iterations (each performs the best
        single-swap improvement).

    Notes
    -----
    Weights multiply each point's contribution to the criterion
    ``sum_i w_i d(x_i, medoid(x_i))`` — the inverse-probability
    correction for biased samples.
    """

    def __init__(self, n_clusters: int = 8, max_swaps: int = 100) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1; got {n_clusters}.")
        self.n_clusters = int(n_clusters)
        self.max_swaps = int(max_swaps)
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
        dists = np.sqrt(pair_sq_distances(pts, pts))
        medoids = self._build(dists, weights)
        medoids = self._swap(dists, weights, medoids)

        labels = dists[:, medoids].argmin(axis=1)
        centers = pts[medoids]
        self.cost_ = float(
            (weights * dists[np.arange(n), medoids[labels]]).sum()
        )
        sizes = np.bincount(labels, minlength=self.n_clusters)
        return ClusteringResult(
            labels=labels,
            centers=centers,
            representatives=[c[None, :] for c in centers],
            sizes=sizes,
        )

    # -- PAM phases ---------------------------------------------------------------

    def _build(self, dists: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Greedy BUILD: repeatedly add the medoid that lowers cost most."""
        n = dists.shape[0]
        first = int((weights[None, :] * dists).sum(axis=1).argmin())
        medoids = [first]
        nearest = dists[:, first].copy()
        for _ in range(1, self.n_clusters):
            # Gain of adding candidate c: sum_i w_i * max(0, nearest_i - d_ic)
            improvement = np.maximum(0.0, nearest[None, :] - dists) @ weights
            improvement[medoids] = -np.inf
            best = int(improvement.argmax())
            medoids.append(best)
            np.minimum(nearest, dists[:, best], out=nearest)
        return np.array(medoids, dtype=np.int64)

    def _swap(
        self, dists: np.ndarray, weights: np.ndarray, medoids: np.ndarray
    ) -> np.ndarray:
        """Steepest-descent SWAP until no swap improves the cost."""
        n = dists.shape[0]
        medoids = medoids.copy()
        for _ in range(self.max_swaps):
            med_d = dists[:, medoids]
            order = np.argsort(med_d, axis=1)
            nearest = med_d[np.arange(n), order[:, 0]]
            second = (
                med_d[np.arange(n), order[:, 1]]
                if self.n_clusters > 1
                else np.full(n, np.inf)
            )
            nearest_idx = order[:, 0]

            best_delta = 0.0
            best_pair = None
            is_medoid = np.zeros(n, dtype=bool)
            is_medoid[medoids] = True
            candidates = np.nonzero(~is_medoid)[0]
            if candidates.size == 0:
                break
            d_cand = dists[:, candidates]  # (n, n_candidates)
            for m_pos in range(self.n_clusters):
                owned = nearest_idx == m_pos
                # Cost change per point if medoid m_pos is replaced by c:
                # owned points re-attach to min(second, d_ic); others
                # switch only if c is closer than their current nearest.
                reattach = np.minimum(second[owned, None], d_cand[owned, :])
                delta_owned = (
                    weights[owned] @ (reattach - nearest[owned, None])
                )
                gain = np.minimum(0.0, d_cand[~owned, :] - nearest[~owned, None])
                delta_other = weights[~owned] @ gain
                delta = delta_owned + delta_other
                c_best = int(delta.argmin())
                if delta[c_best] < best_delta - 1e-12:
                    best_delta = float(delta[c_best])
                    best_pair = (m_pos, candidates[c_best])
            if best_pair is None:
                break
            medoids[best_pair[0]] = best_pair[1]
        return medoids
