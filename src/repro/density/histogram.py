"""Multi-dimensional histogram ("grid") density estimator.

A drop-in alternative back-end for the biased sampler: partition the
bounding box into ``bins_per_dim^d`` equal cells and estimate the density
inside a cell as ``count / cell_volume``. This is the estimator family the
Palmer-Faloutsos baseline uses (with hashing); here it is exact
(dictionary of occupied cells, no collisions), which isolates the effect
of hash collisions in the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.density.base import DensityEstimator
from repro.exceptions import ParameterError
from repro.utils.scaling import MinMaxScaler
from repro.utils.streams import DataStream

__all__ = ["GridDensityEstimator"]


class GridDensityEstimator(DensityEstimator):
    """Equi-width grid histogram over the data bounding box.

    Dataset passes: 2 — one scan finds the bounding box, one counts
    cell occupancies (the box scan still runs when ``bounds`` is given;
    see Notes for the single-pass escape hatch).

    Memory: O(m) — only occupied cells are stored in the sparse count
    map; chunks are binned and discarded as the scan advances.

    Parameters
    ----------
    bins_per_dim:
        Number of cells along each attribute. Total cells are
        ``bins_per_dim ** d`` but only occupied cells are stored.
    bounds:
        Optional ``(mins, maxs)`` bounding box; when given, fitting
        skips the box-finding pass (see Notes).

    Notes
    -----
    Fitting takes *two* passes when the bounding box is unknown (one to
    find the box, one to count); pass ``bounds=(mins, maxs)`` to fit in a
    single pass like the paper's kernel estimator.
    """

    __n_passes__ = 2

    #: Peak working-memory bound of fit()/evaluate() (runtime-checked).
    __space__ = "O(m)"

    def __init__(self, bins_per_dim: int = 32, bounds=None) -> None:
        if bins_per_dim < 1:
            raise ParameterError(
                f"bins_per_dim must be >= 1; got {bins_per_dim}."
            )
        self.bins_per_dim = int(bins_per_dim)
        self.bounds = bounds
        # Fitted state
        self.scaler_: MinMaxScaler | None = None
        self.cells_: dict[tuple[int, ...], int] | None = None
        self.cell_volume_: float | None = None
        self.n_points_: int | None = None
        self.n_dims_: int | None = None

    def fit(self, data=None, *, stream: DataStream | None = None):
        source = self._as_stream(data, stream)
        scaler = MinMaxScaler()
        if self.bounds is not None:
            mins, maxs = self.bounds
            probe = np.vstack([np.asarray(mins, float), np.asarray(maxs, float)])
            scaler.fit(probe)
        else:
            for chunk in source:
                scaler.partial_fit(chunk)
        self.scaler_ = scaler

        cells: dict[tuple[int, ...], int] = {}
        n = 0
        n_dims = None
        for chunk in source:
            n_dims = chunk.shape[1]
            n += chunk.shape[0]
            idx = self._cell_indices(chunk)
            uniq, counts = np.unique(idx, axis=0, return_counts=True)
            for cell, count in zip(map(tuple, uniq), counts):
                cells[cell] = cells.get(cell, 0) + int(count)
        if n == 0:
            raise ParameterError("cannot fit a density estimator on no data.")
        self.n_points_ = n
        self.n_dims_ = n_dims
        self.cells_ = cells
        # Cell volume in *original* coordinates so densities integrate to n.
        self.cell_volume_ = scaler.volume_ / self.bins_per_dim**n_dims
        return self

    def _cell_indices(self, points: np.ndarray) -> np.ndarray:
        unit = self.scaler_.transform(points)
        idx = np.floor(unit * self.bins_per_dim).astype(np.int64)
        # Points on the max boundary belong to the last cell; points
        # outside the fitted box clamp to the nearest edge cell.
        return np.clip(idx, 0, self.bins_per_dim - 1)

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        idx = self._cell_indices(points)
        counts = np.fromiter(
            (self.cells_.get(tuple(row), 0) for row in idx),
            dtype=np.float64,
            count=idx.shape[0],
        )
        return counts / self.cell_volume_

    @property
    def n_occupied_cells_(self) -> int:
        """Number of non-empty grid cells after fitting."""
        self._require_fitted()
        return len(self.cells_)
