"""Cell-based exact DB(p, k) detection (Knorr & Ng, VLDB 1998).

The third exact algorithm from the cited paper, built for low
dimensions: partition the bounding box into cells of side
``k / (2 sqrt(d))`` so that

* any two points in the same cell or in Chebyshev-adjacent cells
  (layer L1) are within distance ``k`` — their counts are *guaranteed
  neighbours*;
* any two points more than ``ceil(2 sqrt(d))`` rings apart are farther
  than ``k`` — everything beyond layer L2 can be ignored.

Whole cells are then decided at once: if the guaranteed-neighbour count
already exceeds ``p`` the cell holds no outliers. Every other cell needs
point-level distance checks, and those only against L2 points: they
decide the undecided points and give every outlier its exact count.
Linear in ``n`` for fixed (low) dimension.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.exceptions import ParameterError
from repro.outliers.base import OutlierDetector, OutlierResult, resolve_p
from repro.utils.geometry import count_within
from repro.utils.streams import DataStream, as_stream
from repro.utils.validation import check_positive

__all__ = ["CellBasedOutlierDetector"]


class CellBasedOutlierDetector(OutlierDetector):
    """Exact DB(p, k) outliers via the Knorr-Ng cell grid.

    Dataset passes: 1 — one materialising scan; cell colouring and the
    per-cell refinements then run over the in-memory copy.

    Memory: O(n) — the algorithm is defined over a materialised
    dataset copy (it is the exact baseline, not a streaming method).

    Parameters
    ----------
    k:
        Neighbourhood radius.
    p:
        Maximum neighbour count of an outlier (or ``fraction`` of the
        dataset size).
    fraction:
        Alternative to ``p``: the threshold as a fraction of the
        dataset size (specify exactly one of the two).
    max_dims:
        Guard rail: the cell count grows as ``(1/l)^d``, so the
        algorithm refuses dimensions above this bound (the cited paper
        reports it practical for d <= 4).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = np.vstack([rng.normal(0, 0.05, (300, 2)), [[2.0, 2.0]]])
    >>> result = CellBasedOutlierDetector(k=0.5, p=0).detect(data)
    >>> result.indices.tolist()
    [300]
    """

    #: Dataset scans one detect() costs (audited statically by RA001).
    __n_passes__ = 1

    #: Peak working-memory bound of detect() (audited by RA005).
    __space__ = "O(n)"

    def __init__(
        self,
        k: float,
        p: int | None = None,
        fraction: float | None = None,
        max_dims: int = 4,
    ) -> None:
        self.k = check_positive(k, name="k")
        self.p = p
        self.fraction = fraction
        self.max_dims = int(max_dims)

    def detect(self, data, *, stream: DataStream | None = None) -> OutlierResult:
        source = stream if stream is not None else as_stream(data)
        pts = source.materialize()
        n, d = pts.shape
        if d > self.max_dims:
            raise ParameterError(
                f"cell-based detection is practical only for d <= "
                f"{self.max_dims}; got d={d}. Use IndexedOutlierDetector."
            )
        p = resolve_p(self.p, self.fraction, n)

        side = self.k / (2.0 * math.sqrt(d))
        mins = pts.min(axis=0)
        coords = np.floor((pts - mins) / side).astype(np.int64)
        cells: dict[tuple[int, ...], list[int]] = {}
        for row, cell in enumerate(map(tuple, coords)):
            cells.setdefault(cell, []).append(row)
        counts = {cell: len(rows) for cell, rows in cells.items()}

        l2_reach = math.ceil(2.0 * math.sqrt(d))
        offsets_l1 = _ring_offsets(d, 1, 1)
        offsets_l2 = _ring_offsets(d, 2, l2_reach)

        outlier_rows: list[int] = []
        outlier_counts: list[int] = []
        k_sq = self.k * self.k
        for cell, rows in cells.items():
            in_cell = counts[cell]
            l1 = sum(
                counts.get(_shift(cell, off), 0) for off in offsets_l1
            )
            sure = in_cell - 1 + l1
            if sure > p:
                continue  # every point already has > p sure neighbours
            l2_rows = [
                row
                for off in offsets_l2
                for row in cells.get(_shift(cell, off), ())
            ]
            # Count each point's true L2 neighbours (everything else is
            # certain). When even all of L2 keeps the bound within p the
            # whole cell is outliers, but their counts still need this.
            totals = sure + self._within(pts, rows, l2_rows, k_sq)
            for row, total in zip(rows, totals.tolist()):
                if total <= p:
                    outlier_rows.append(row)
                    outlier_counts.append(total)

        order = np.argsort(outlier_rows)
        return OutlierResult(
            indices=np.asarray(outlier_rows, dtype=np.int64)[order],
            neighbor_counts=np.asarray(outlier_counts, dtype=np.int64)[order],
            n_passes=source.passes,
            n_candidates=n,
        )

    @staticmethod
    def _within(
        pts: np.ndarray, rows: list[int], candidate_rows: list[int], k_sq: float
    ) -> np.ndarray:
        """Neighbours among ``candidate_rows`` of each of ``rows``."""
        return count_within(pts[rows], pts[candidate_rows], k_sq)


def _ring_offsets(
    d: int, inner: int, outer: int
) -> list[tuple[int, ...]]:
    """All integer offsets with Chebyshev norm in [inner, outer]."""
    out = []
    for off in itertools.product(range(-outer, outer + 1), repeat=d):
        radius = max(abs(o) for o in off)
        if inner <= radius <= outer:
            out.append(off)
    return out


def _shift(cell: tuple[int, ...], offset: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c + o for c, o in zip(cell, offset))
