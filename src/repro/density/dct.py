"""DCT-compressed histogram density estimator.

The other transform-domain summary the paper cites (Lee, Kim & Chung,
SIGMOD 1999): take the multi-dimensional type-II discrete cosine
transform of an equi-width histogram and keep the ``n_coefficients``
largest-magnitude coefficients. Compared with Haar wavelets the DCT
basis is smooth, so the reconstruction rings less on gradual density
changes and more on sharp cluster edges.
"""

from __future__ import annotations

import numpy as np

from repro.density.base import DensityEstimator
from repro.exceptions import ParameterError
from repro.utils.scaling import MinMaxScaler
from repro.utils.streams import DataStream

__all__ = ["DctDensityEstimator"]


class DctDensityEstimator(DensityEstimator):
    """Top-m DCT coefficients of an equi-width histogram.

    Dataset passes: 2 — a bounding-box scan followed by the histogram
    counting scan the DCT is taken over.

    Memory: O(m) — the dense ``bins_per_dim ** d`` histogram the DCT
    is taken over, then the retained coefficient table.

    Parameters
    ----------
    bins_per_dim:
        Histogram resolution per attribute (any size >= 2).
    n_coefficients:
        DCT coefficients retained.
    """

    __n_passes__ = 2

    #: Peak working-memory bound of fit()/evaluate() (runtime-checked).
    __space__ = "O(m)"

    def __init__(self, bins_per_dim: int = 32, n_coefficients: int = 1000):
        if bins_per_dim < 2:
            raise ParameterError(
                f"bins_per_dim must be >= 2; got {bins_per_dim}."
            )
        if n_coefficients < 1:
            raise ParameterError(
                f"n_coefficients must be >= 1; got {n_coefficients}."
            )
        self.bins_per_dim = int(bins_per_dim)
        self.n_coefficients = int(n_coefficients)
        self.scaler_: MinMaxScaler | None = None
        self.grid_: np.ndarray | None = None
        self.cell_volume_: float | None = None
        self.n_points_: int | None = None
        self.n_dims_: int | None = None
        self.n_kept_: int | None = None

    def fit(self, data=None, *, stream: DataStream | None = None):
        # Imported here: scipy.fft is slow to import and only this needs it.
        from scipy import fft as scipy_fft

        source = self._as_stream(data, stream)
        scaler = MinMaxScaler()
        for chunk in source:
            scaler.partial_fit(chunk)
        self.scaler_ = scaler

        n_dims = source.n_dims
        if self.bins_per_dim**n_dims > 2**24:
            raise ParameterError(
                "DCT grid too large; lower bins_per_dim or the "
                "dimensionality."
            )
        histogram = np.zeros((self.bins_per_dim,) * n_dims)
        n = 0
        for chunk in source:
            n += chunk.shape[0]
            idx = self._cell_indices(chunk)
            np.add.at(histogram, tuple(idx.T), 1.0)
        if n == 0:
            raise ParameterError("cannot fit a density estimator on no data.")

        coeffs = scipy_fft.dctn(histogram, norm="ortho")
        flat = np.abs(coeffs).ravel()
        keep = min(self.n_coefficients, flat.size)
        if keep < flat.size:
            # Exact top-k by magnitude (ties broken arbitrarily, so the
            # summary honours the budget exactly).
            drop = np.argpartition(flat, flat.size - keep)[: flat.size - keep]
            coeffs[np.unravel_index(drop, coeffs.shape)] = 0.0
        self.n_kept_ = int((coeffs != 0).sum())
        self.grid_ = scipy_fft.idctn(coeffs, norm="ortho")
        self.n_points_ = n
        self.n_dims_ = n_dims
        self.cell_volume_ = scaler.volume_ / self.bins_per_dim**n_dims
        return self

    def _cell_indices(self, points: np.ndarray) -> np.ndarray:
        unit = self.scaler_.transform(points)
        idx = np.floor(unit * self.bins_per_dim).astype(np.int64)
        return np.clip(idx, 0, self.bins_per_dim - 1)

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        idx = self._cell_indices(points)
        values = self.grid_[tuple(idx.T)]
        return np.maximum(values, 0.0) / self.cell_volume_
