"""Exact DB(p, k) outlier detectors (Knorr & Ng, VLDB 1998).

Two exact algorithms:

* :class:`NestedLoopOutlierDetector` — the block nested-loop algorithm:
  compare every pair of blocks, with the classic early exit once a point
  has accumulated more than ``p`` neighbours. O(n^2) worst case but
  block-at-a-time in memory, and the reference ground truth for the
  approximate detector's precision/recall numbers.
* :class:`IndexedOutlierDetector` — a kd-tree fixed-radius count; much
  faster in low dimensions, identical output.

Both materialize their input through the hardened stream layer (see
:mod:`repro.faults`): a strict policy rejects NaN/Inf input with a
located error, and a quarantine policy hands the detectors the
surviving rows only, so reported outlier indices address survivors.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.exceptions import ParameterError
from repro.outliers.base import OutlierDetector, OutlierResult, resolve_p
from repro.parallel import parallel_map_chunks
from repro.utils.geometry import count_within
from repro.utils.streams import DataStream, as_stream
from repro.utils.validation import check_positive

__all__ = [
    "NestedLoopOutlierDetector",
    "IndexedOutlierDetector",
]


def _count_outer_block(
    pts: np.ndarray, p: int, k_sq: float, block_size: int, a_start: int
) -> np.ndarray:
    """Neighbour counts for one outer block of the nested-loop scan.

    Outer blocks are independent — the early exit only ever resolves
    rows of the block being scanned — so each is a pure function of the
    dataset and its offset, and the outer loop parallelises with
    byte-identical results. A row's count freezes (early exit) once it
    exceeds ``p``: the row is then a known non-outlier. Distances are
    exact per-coordinate sums (:func:`count_within`), so counts do not
    depend on ``block_size`` or on the data's offset from the origin.
    """
    n = pts.shape[0]
    a_stop = min(a_start + block_size, n)
    counts = np.zeros(a_stop - a_start, dtype=np.int64)
    open_rows = np.arange(a_start, a_stop)
    for b_start in range(0, n, block_size):
        b_stop = min(b_start + block_size, n)
        within = count_within(pts[open_rows], pts[b_start:b_stop], k_sq)
        # Points do not count themselves as neighbours.
        overlap = (open_rows >= b_start) & (open_rows < b_stop)
        within = within - overlap.astype(np.int64)
        counts[open_rows - a_start] += within
        open_rows = open_rows[counts[open_rows - a_start] <= p]
        if open_rows.size == 0:
            break
    return counts


class NestedLoopOutlierDetector(OutlierDetector):
    """Block nested-loop exact DB(p, k) detection.

    Dataset passes: 1 — the dataset is materialised once; the nested
    block loops then run over the in-memory copy.

    Memory: O(n) — the nested-loop join needs the materialised dataset
    (it is the exact baseline, not a streaming method).

    Parameters
    ----------
    k:
        Neighbourhood radius (Euclidean).
    p:
        Maximum neighbour count an outlier may have; alternatively give
        ``fraction`` and ``p = fraction * n`` is used.
    fraction:
        Alternative to ``p``: the threshold as a fraction of the
        dataset size (specify exactly one of the two).
    block_size:
        Rows held in memory per block.
    n_jobs:
        Worker count for the outer block loop (``None`` defers to the
        ambient default / ``REPRO_N_JOBS``; see :mod:`repro.parallel`).
        Outer blocks are independent, so results are byte-identical
        for any value.
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
        block_size: int = 4096,
        n_jobs: int | None = None,
    ) -> None:
        self.k = check_positive(k, name="k")
        self.p = p
        self.fraction = fraction
        if block_size < 1:
            raise ParameterError(f"block_size must be >= 1; got {block_size}.")
        self.block_size = int(block_size)
        self.n_jobs = n_jobs

    def detect(self, data, *, stream: DataStream | None = None) -> OutlierResult:
        source = stream if stream is not None else as_stream(data)
        pts = source.materialize()
        n = pts.shape[0]
        p = resolve_p(self.p, self.fraction, n)
        k_sq = self.k * self.k
        block_counts = parallel_map_chunks(
            partial(_count_outer_block, pts, p, k_sq, self.block_size),
            range(0, n, self.block_size),
            n_jobs=self.n_jobs,
        )
        counts = np.concatenate(block_counts)
        outliers = np.nonzero(counts <= p)[0]
        return OutlierResult(
            indices=outliers,
            neighbor_counts=counts[outliers],
            n_passes=source.passes,
            n_candidates=n,
        )


class IndexedOutlierDetector(OutlierDetector):
    """kd-tree exact DB(p, k) detection.

    Dataset passes: 1 — one materialising scan builds the tree; the
    fixed-radius queries then run in memory.

    Memory: O(n) — the spatial index holds every point.

    Same output as the nested-loop detector; the tree turns each
    neighbourhood count into a fixed-radius query.
    """

    #: Dataset scans one detect() costs (audited statically by RA001).
    __n_passes__ = 1

    #: Peak working-memory bound of detect() (audited by RA005).
    __space__ = "O(n)"

    def __init__(
        self, k: float, p: int | None = None, fraction: float | None = None
    ) -> None:
        self.k = check_positive(k, name="k")
        self.p = p
        self.fraction = fraction

    def detect(self, data, *, stream: DataStream | None = None) -> OutlierResult:
        # Imported here: scipy.spatial is slow to import and only this
        # detector needs it.
        from scipy.spatial import cKDTree

        source = stream if stream is not None else as_stream(data)
        pts = source.materialize()
        n = pts.shape[0]
        p = resolve_p(self.p, self.fraction, n)
        tree = cKDTree(pts)
        # Count of points within k, minus one for the point itself.
        counts = (
            np.asarray(
                tree.query_ball_point(
                    pts, self.k, return_length=True, workers=-1
                ),
                dtype=np.int64,
            )
            - 1
        )
        outliers = np.nonzero(counts <= p)[0]
        return OutlierResult(
            indices=outliers,
            neighbor_counts=counts[outliers],
            n_passes=source.passes,
            n_candidates=n,
        )
