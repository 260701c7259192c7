"""k-nearest-neighbour density estimation over a uniform sample.

The third density back-end: keep a reservoir sample of the dataset, and
estimate the density at ``x`` from the distance to the sample's k-th
nearest neighbour — ``f(x) = n * k' / (n_sample * V_ball(r_k))`` — the
classic Loftsgaarden-Quesenberry estimator rescaled to integrate to
``n``. Adaptive (bandwidth shrinks where data is dense) but noisier than
the kernel estimator; included for the estimator ablation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.density.base import DensityEstimator
from repro.density.reservoir import ReservoirSampler
from repro.exceptions import ParameterError
from repro.utils.geometry import ball_volume
from repro.utils.streams import DataStream
from repro.utils.validation import check_random_state

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = ["KnnDensityEstimator"]


class KnnDensityEstimator(DensityEstimator):
    """Density from the distance to the k-th nearest sampled point.

    Dataset passes: 1 — the reservoir that keeps the reference points
    fills in a single fit scan.

    Memory: O(m) — the ``n_sample``-point reservoir is the whole
    fitted state.

    Parameters
    ----------
    n_sample:
        Reservoir size; the estimator keeps this many points.
    k:
        Which neighbour's distance sets the local scale. Must satisfy
        ``k <= n_sample``.
    random_state:
        Seed or generator for the reservoir draws.
    """

    __n_passes__ = 1

    #: Peak working-memory bound of fit()/evaluate() (runtime-checked).
    __space__ = "O(m)"

    def __init__(self, n_sample: int = 1000, k: int = 10, random_state=None):
        if n_sample < 1:
            raise ParameterError(f"n_sample must be >= 1; got {n_sample}.")
        if not 1 <= k <= n_sample:
            raise ParameterError(
                f"k must be in [1, n_sample={n_sample}]; got {k}."
            )
        self.n_sample = int(n_sample)
        self.k = int(k)
        self.random_state = random_state
        self.tree_: cKDTree | None = None
        self.radius_floor_: float | None = None
        self.sample_size_: int | None = None
        self.n_points_: int | None = None
        self.n_dims_: int | None = None

    def fit(self, data=None, *, stream: DataStream | None = None):
        # Imported here: scipy.spatial is slow to import and only the
        # kNN backend needs it.
        from scipy.spatial import cKDTree

        source = self._as_stream(data, stream)
        rng = check_random_state(self.random_state)
        reservoir = ReservoirSampler(self.n_sample, random_state=rng)
        n = 0
        for chunk in source:
            reservoir.extend(chunk)
            n += chunk.shape[0]
        if n == 0:
            raise ParameterError("cannot fit a density estimator on no data.")
        sample = reservoir.sample
        self.n_points_ = n
        self.n_dims_ = sample.shape[1]
        self.sample_size_ = sample.shape[0]
        self.tree_ = cKDTree(sample)
        # Radius for a query on >= k coincident sample points: the
        # smallest gap between distinct sample points, fixed at fit time
        # so a row's density never depends on the rows evaluated with it.
        distinct = np.unique(sample, axis=0)
        self.radius_floor_ = 1e-12
        if distinct.shape[0] > 1:
            gaps = cKDTree(distinct).query(distinct, k=2)[0]
            self.radius_floor_ = float(gaps[:, 1].min())
        return self

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        k = min(self.k, self.sample_size_)
        dists, _ = self.tree_.query(points, k=k)
        if k > 1:
            r_k = dists[:, -1]
        else:
            r_k = np.atleast_1d(dists)
        r_k = np.where(r_k > 0, r_k, self.radius_floor_)
        volumes = np.array([ball_volume(r, self.n_dims_) for r in r_k])
        return self.n_points_ * k / (self.sample_size_ * volumes)
