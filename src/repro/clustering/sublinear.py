"""Sublinear-time approximate K-median via uniform sampling.

Section 3.1 of the paper relates its pipeline to "the new results on
approximation clustering algorithms [Indyk, STOC/FOCS 1999], since
these algorithms also run on a (uniform random) sample to efficiently
obtain the approximate clusterings" — while noting they approximate the
*K-medoids criterion*, a different target from the hierarchical
clusterings the paper computes.

This module implements that comparison point in its practical form:
draw a uniform sample of ``O(sqrt(n k))``-ish size, solve K-median on
the sample with PAM, and charge the full dataset to the sample medoids.
With a second refinement round (re-solving within each induced
partition) this is the classic sampling bicriteria scheme; the sample
size exponent is configurable so the sublinearity is explicit.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import Clusterer, ClusteringResult
from repro.clustering.kmedoids import KMedoids
from repro.exceptions import ParameterError
from repro.utils.geometry import nearest, pair_sq_distances
from repro.utils.validation import check_array, check_random_state

__all__ = ["SublinearKMedian"]


class SublinearKMedian(Clusterer):
    """Sample-based approximate K-median.

    Parameters
    ----------
    n_clusters:
        Number of medians ``K``.
    sample_exponent:
        The sample holds ``ceil(c * (n * K) ** sample_exponent)``
        points; 0.5 gives the canonical ``sqrt(nK)`` scaling.
    sample_factor:
        The constant ``c`` above.
    refine:
        When true, run one refinement round: partition the data by the
        sample medoids, then re-solve 1-median inside each part on a
        fresh per-part sample.
    random_state:
        Seed for the sampling.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> pts = np.vstack([rng.normal(c, 0.1, (400, 2))
    ...                  for c in ((0, 0), (4, 4))])
    >>> result = SublinearKMedian(n_clusters=2, random_state=0).fit(pts)
    >>> sorted(result.sizes.tolist())
    [400, 400]
    """

    def __init__(
        self,
        n_clusters: int = 8,
        sample_exponent: float = 0.5,
        sample_factor: float = 4.0,
        refine: bool = True,
        random_state=None,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1; got {n_clusters}.")
        if not 0.0 < sample_exponent <= 1.0:
            raise ParameterError(
                f"sample_exponent must be in (0, 1]; got {sample_exponent}."
            )
        if sample_factor <= 0:
            raise ParameterError(
                f"sample_factor must be > 0; got {sample_factor}."
            )
        self.n_clusters = int(n_clusters)
        self.sample_exponent = float(sample_exponent)
        self.sample_factor = float(sample_factor)
        self.refine = bool(refine)
        self.random_state = random_state
        self.sample_size_: int | None = None
        self.cost_: float | None = None

    def fit(self, points, sample_weight=None) -> ClusteringResult:
        pts = check_array(points, name="points", min_rows=self.n_clusters)
        if sample_weight is not None:
            raise ParameterError(
                "SublinearKMedian draws its own uniform sample; "
                "sample_weight is not supported."
            )
        rng = check_random_state(self.random_state)
        n = pts.shape[0]
        size = int(
            np.ceil(
                self.sample_factor
                * (n * self.n_clusters) ** self.sample_exponent
            )
        )
        size = int(np.clip(size, self.n_clusters, n))
        self.sample_size_ = size

        rows = rng.choice(n, size=size, replace=False)
        solved = KMedoids(n_clusters=self.n_clusters).fit(pts[rows])
        medoids = solved.centers

        if self.refine:
            medoids = self._refine(pts, medoids, rng)

        labels, sq_dist = nearest(pts, medoids)
        self.cost_ = float(np.sqrt(sq_dist).sum())
        sizes = np.bincount(labels, minlength=self.n_clusters)
        return ClusteringResult(
            labels=labels,
            centers=medoids,
            representatives=[c[None, :] for c in medoids],
            sizes=sizes,
        )

    def _refine(
        self,
        pts: np.ndarray,
        medoids: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Re-solve 1-median per induced part on a per-part sample."""
        labels, _ = nearest(pts, medoids)
        refined = medoids.copy()
        per_part = max(
            8, self.sample_size_ // max(1, self.n_clusters)
        )
        for k in range(self.n_clusters):
            members = np.nonzero(labels == k)[0]
            if members.size == 0:
                continue
            chosen = (
                members
                if members.size <= per_part
                else rng.choice(members, size=per_part, replace=False)
            )
            part = pts[chosen]
            dists = np.sqrt(pair_sq_distances(part, part))
            refined[k] = part[dists.sum(axis=1).argmin()]
        return refined
