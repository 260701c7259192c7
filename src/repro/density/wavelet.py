"""Haar-wavelet compressed histogram density estimator.

One of the density-summary families the paper cites as alternatives to
kernels (Vitter et al., CIKM 1998; Matias et al., SIGMOD 1998): build an
equi-width histogram, take its d-dimensional Haar wavelet transform,
keep only the ``n_coefficients`` largest-magnitude coefficients, and
reconstruct on demand. The summary size is decoupled from the grid
resolution, exactly like the kernel estimator's center count — which is
what makes it a fair drop-in back-end for the biased sampler.
"""

from __future__ import annotations

import numpy as np

from repro.density.base import DensityEstimator
from repro.exceptions import ParameterError
from repro.utils.scaling import MinMaxScaler
from repro.utils.streams import DataStream

__all__ = [
    "haar_forward",
    "haar_inverse",
    "WaveletDensityEstimator",
]


def haar_forward(values: np.ndarray) -> np.ndarray:
    """Full d-dimensional Haar transform (orthonormal, sizes = 2^m)."""
    out = values.astype(np.float64).copy()
    for axis in range(out.ndim):
        out = _haar_axis(out, axis, inverse=False)
    return out


def haar_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`haar_forward`."""
    out = coeffs.astype(np.float64).copy()
    for axis in range(out.ndim):
        out = _haar_axis(out, axis, inverse=True)
    return out


def _haar_axis(values: np.ndarray, axis: int, inverse: bool) -> np.ndarray:
    """1-D orthonormal Haar transform applied along one axis."""
    values = np.moveaxis(values, axis, 0)
    size = values.shape[0]
    if size & (size - 1):
        raise ParameterError(f"Haar transform needs a power-of-two size; got {size}.")
    root2 = np.sqrt(2.0)
    if not inverse:
        work = values.copy()
        length = size
        while length > 1:
            half = length // 2
            evens = work[0:length:2].copy()
            odds = work[1:length:2].copy()
            work[:half] = (evens + odds) / root2
            work[half:length] = (evens - odds) / root2
            length = half
        out = work
    else:
        work = values.copy()
        length = 2
        while length <= size:
            half = length // 2
            approx = work[:half].copy()
            detail = work[half:length].copy()
            work[0:length:2] = (approx + detail) / root2
            work[1:length:2] = (approx - detail) / root2
            length *= 2
        out = work
    return np.moveaxis(out, 0, axis)


class WaveletDensityEstimator(DensityEstimator):
    """Top-m Haar coefficients of an equi-width histogram.

    Dataset passes: 2 — a bounding-box scan followed by the histogram
    counting scan the Haar transform is taken over.

    Memory: O(m) — the dense ``bins_per_dim ** d`` histogram the Haar
    transform runs over, then the thresholded coefficient table.

    Parameters
    ----------
    bins_per_dim:
        Histogram resolution per attribute; must be a power of two.
    n_coefficients:
        Wavelet coefficients retained (the summary budget, comparable
        to the kernel estimator's ``n_kernels``).

    Notes
    -----
    Thresholding can produce small negative reconstructed cells; they
    are clipped to zero at evaluation, which slightly redistributes
    mass — the classic wavelet-histogram trade-off.
    """

    __n_passes__ = 2

    #: Peak working-memory bound of fit()/evaluate() (runtime-checked).
    __space__ = "O(m)"

    def __init__(self, bins_per_dim: int = 32, n_coefficients: int = 1000):
        if bins_per_dim < 2 or bins_per_dim & (bins_per_dim - 1):
            raise ParameterError(
                f"bins_per_dim must be a power of two >= 2; got {bins_per_dim}."
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
        source = self._as_stream(data, stream)
        scaler = MinMaxScaler()
        for chunk in source:
            scaler.partial_fit(chunk)
        self.scaler_ = scaler

        n_dims = source.n_dims
        if self.bins_per_dim**n_dims > 2**24:
            raise ParameterError(
                "wavelet grid too large; lower bins_per_dim or the "
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

        coeffs = haar_forward(histogram)
        flat = np.abs(coeffs).ravel()
        keep = min(self.n_coefficients, flat.size)
        if keep < flat.size:
            # Exact top-k by magnitude (ties broken arbitrarily, so the
            # summary honours the budget exactly).
            drop = np.argpartition(flat, flat.size - keep)[: flat.size - keep]
            coeffs[np.unravel_index(drop, coeffs.shape)] = 0.0
        self.n_kept_ = int((coeffs != 0).sum())
        self.grid_ = haar_inverse(coeffs)
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
