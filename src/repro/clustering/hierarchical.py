"""Generic agglomerative clustering via Lance-Williams updates.

Implements the textbook bottom-up hierarchy over a dense distance
matrix: start with singletons, repeatedly merge the closest pair, and
update distances with the Lance-Williams recurrence for the chosen
linkage. Quadratic memory — meant for samples and for BIRCH's global
phase over CF-entry centroids (where entry weights feed the centroid /
average updates).
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import Clusterer, ClusteringResult
from repro.exceptions import ParameterError
from repro.utils.geometry import pair_sq_distances
from repro.utils.validation import check_array

__all__ = ["AgglomerativeClustering"]

_LINKAGES = ("single", "complete", "average", "centroid")


class AgglomerativeClustering(Clusterer):
    """Bottom-up hierarchy down to ``n_clusters`` (or a distance cut).

    Parameters
    ----------
    n_clusters:
        Stop when this many clusters remain.
    linkage:
        One of ``single``, ``complete``, ``average``, ``centroid``.
        Centroid linkage operates on *squared* Euclidean distances, the
        others on plain Euclidean distances.
    distance_threshold:
        Optional alternative stop: halt before any merge whose linkage
        distance exceeds the threshold (``n_clusters`` then acts as a
        lower bound of 1).
    """

    def __init__(
        self,
        n_clusters: int = 2,
        linkage: str = "average",
        distance_threshold: float | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1; got {n_clusters}.")
        if linkage not in _LINKAGES:
            raise ParameterError(
                f"linkage must be one of {_LINKAGES}; got {linkage!r}."
            )
        self.n_clusters = int(n_clusters)
        self.linkage = linkage
        self.distance_threshold = distance_threshold

    def fit(self, points, sample_weight=None) -> ClusteringResult:
        pts = check_array(points, name="points")
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
        target = min(self.n_clusters, n)

        dist = pair_sq_distances(pts, pts)
        if self.linkage != "centroid":
            np.sqrt(dist, out=dist)
        np.fill_diagonal(dist, np.inf)

        active = np.ones(n, dtype=bool)
        sizes = weights.copy()
        # Union-find-ish membership: cluster id -> member row indices.
        members: list[list[int]] = [[i] for i in range(n)]
        n_active = n
        while n_active > target:
            flat = np.argmin(dist)
            i, j = np.unravel_index(flat, dist.shape)
            d_ij = dist[i, j]
            if (
                self.distance_threshold is not None
                and d_ij > self.distance_threshold
            ):
                break
            i, j = (int(i), int(j)) if i < j else (int(j), int(i))
            self._merge_rows(dist, sizes, i, j, d_ij)
            members[i].extend(members[j])
            members[j] = []
            sizes[i] += sizes[j]
            active[j] = False
            dist[j, :] = np.inf
            dist[:, j] = np.inf
            n_active -= 1

        ids = np.nonzero(active)[0]
        labels = np.empty(n, dtype=np.int64)
        centers = np.empty((len(ids), pts.shape[1]))
        counts = np.empty(len(ids), dtype=np.int64)
        for new_id, old_id in enumerate(ids):
            rows = members[old_id]
            labels[rows] = new_id
            centers[new_id] = np.average(
                pts[rows], axis=0, weights=weights[rows]
            )
            counts[new_id] = len(rows)
        return ClusteringResult(
            labels=labels,
            centers=centers,
            representatives=[c[None, :] for c in centers],
            sizes=counts,
        )

    def _merge_rows(
        self,
        dist: np.ndarray,
        sizes: np.ndarray,
        i: int,
        j: int,
        d_ij: float,
    ) -> None:
        """Lance-Williams update of row/column ``i`` after absorbing ``j``."""
        d_i = dist[i, :]
        d_j = dist[j, :]
        if self.linkage == "single":
            new = np.minimum(d_i, d_j)
        elif self.linkage == "complete":
            # inf entries (dead columns) stay inf under maximum.
            new = np.maximum(d_i, d_j)
        elif self.linkage == "average":
            w_i = sizes[i] / (sizes[i] + sizes[j])
            new = w_i * d_i + (1.0 - w_i) * d_j
        else:  # centroid, on squared distances
            s_i, s_j = sizes[i], sizes[j]
            total = s_i + s_j
            new = (
                (s_i / total) * d_i
                + (s_j / total) * d_j
                - (s_i * s_j / total**2) * d_ij
            )
        new[i] = np.inf
        new[j] = np.inf
        dist[i, :] = new
        dist[:, i] = new
