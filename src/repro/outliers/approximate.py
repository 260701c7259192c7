"""The paper's density-screened DB(p, k) outlier detector (section 3.2).

The idea: a DB(p, k) outlier has at most ``p`` points within distance
``k``, so its *expected* neighbour count under the density estimate,

``N'(O, k) = integral over Ball(O, k) of f``,

must be small. One pass over the data keeps the points whose ``N'`` is
below a slack-scaled threshold as *likely outliers*; a second pass
verifies the true neighbour count of each candidate. The density fit
itself takes one earlier pass, matching the paper's "at most two dataset
passes plus the pass that computes the density estimator".

The volume screen evaluates ``N'`` only where it can matter. A cheap
per-row lower bound on the density
(:meth:`~repro.density.base.DensityEstimator.density_lower_bound`)
clears rows whose ``N'`` provably exceeds both the threshold and the
sparsest quota's cutoff, much as Knorr and Ng's cell-based algorithm
clears whole cells without computing a distance; the candidate set is
exactly the one evaluating every row would give.

The same screening machinery also estimates the *number* of DB(p, k)
outliers in a single pass — the paper highlights this as a cheap way to
explore ``p`` and ``k`` before committing to a full run.

Both passes consume hardened streams (see :mod:`repro.faults`): under a
quarantine policy the detector only ever sees — and reports indices
into — the surviving rows, and the screen/verify passes observe the
identical survivor set because the policy is a pure function of the
chunk values.
"""

from __future__ import annotations

import numpy as np

from repro.density.base import DensityEstimator
from repro.density.kde import KernelDensityEstimator
from repro.exceptions import ParameterError
from repro.obs import get_recorder
from repro.outliers.base import OutlierDetector, OutlierResult, resolve_p
from repro.sharding import evaluate_chunks
from repro.utils.geometry import ball_volume, count_within
from repro.utils.streams import DataStream, as_stream
from repro.utils.validation import check_positive

__all__ = ["ApproximateOutlierDetector"]


class ApproximateOutlierDetector(OutlierDetector):
    """Density screening + exact verification for DB(p, k) outliers.

    Dataset passes: 3 — ``fit_density`` (when the estimator arrives
    unfitted), the ``screen`` scan that evaluates each point's
    approximate neighbourhood mass, and the ``verify`` scan that counts
    exact neighbours of the surviving candidates.

    Memory: O(n) — the screen's sparsest-quota selection may hold every
    point when ``candidate_quantile`` is 1, beside the O(chunk) bounds
    of one chunk and the estimator's cached bound grid (at most 4 MB
    for the KDE); fitting is O(m), and
    verification holds the O(b) surviving candidates, three tile
    buffers of ``max(256 * b, 32768)`` cells (about 4.3 kB per
    candidate) and the cell order of one chunk, O(chunk).

    Parameters
    ----------
    k:
        Neighbourhood radius.
    p:
        Neighbour-count threshold (or ``fraction`` of the dataset size).
    fraction:
        Alternative to ``p``: the threshold as a fraction of the
        dataset size (specify exactly one of the two).
    estimator:
        Density estimator; an unfitted one is fitted in the first pass.
        Defaults to the paper's 1000-kernel Epanechnikov KDE.
    slack:
        Screening keeps points with ``N'(O, k) <= slack * (p + 1)``.
        Larger slack trades verification work for recall robustness
        against density-estimation error; the default absorbs the
        kernel smoothing bias near cluster boundaries while keeping the
        candidate set tiny on realistic density landscapes. The screen
        is least reliable when ``k`` is much smaller than the kernel
        bandwidth (the smoothed density then badly overestimates the
        tiny-ball count); raise the slack in that regime.
    candidate_quantile:
        Recall safety net: the sparsest ``candidate_quantile`` fraction
        of the dataset always enters the candidate set, regardless of
        the absolute threshold. Kernel smoothing inflates the density of
        outliers that sit near cluster boundaries; the quantile floor
        keeps them screenable while the exact verification pass removes
        any false candidates it lets through.
    screen:
        ``"volume"`` approximates the ball integral as ``f(O) *
        Vol(Ball(k))`` (one density evaluation per point); ``"montecarlo"``
        integrates with ``n_mc`` samples per point (slower, tighter).
    n_mc:
        Monte-Carlo points per ball for the ``"montecarlo"`` screen.
    random_state:
        Seed or generator for the Monte-Carlo draws (and the default
        estimator's reservoir).
    """

    #: Per-phase dataset scans of detect() (runtime-checked).
    __n_passes__ = {"fit_density": 1, "screen": 1, "verify": 1}

    #: Per-phase peak-allocation bounds of detect() (runtime-checked).
    __space__ = {
        "fit_density": "O(m)",
        "screen": "O(n)",
        "verify": "O(b)",
    }

    def __init__(
        self,
        k: float,
        p: int | None = None,
        fraction: float | None = None,
        estimator: DensityEstimator | None = None,
        slack: float = 12.0,
        candidate_quantile: float = 0.02,
        screen: str = "volume",
        n_mc: int = 64,
        random_state=None,
    ) -> None:
        self.k = check_positive(k, name="k")
        self.p = p
        self.fraction = fraction
        self.estimator = estimator
        self.slack = check_positive(slack, name="slack")
        if not 0.0 <= candidate_quantile <= 1.0:
            raise ParameterError(
                f"candidate_quantile must be in [0, 1]; "
                f"got {candidate_quantile}."
            )
        self.candidate_quantile = float(candidate_quantile)
        if screen not in ("volume", "montecarlo"):
            raise ParameterError(
                f"screen must be 'volume' or 'montecarlo'; got {screen!r}."
            )
        self.screen = screen
        self.n_mc = int(n_mc)
        self.random_state = random_state
        self.estimator_: DensityEstimator | None = None

    # -- detection ------------------------------------------------------------

    def detect(self, data, *, stream: DataStream | None = None) -> OutlierResult:
        """Find all DB(p, k) outliers: screen, then verify exactly."""
        source = stream if stream is not None else as_stream(data)
        recorder = get_recorder()
        with recorder.phase("fit_density"):
            estimator = self._resolve_estimator(source)
        p = resolve_p(self.p, self.fraction, len(source))

        with recorder.phase("screen"):
            candidate_idx, candidate_pts = self._screen(source, estimator, p)
        with recorder.phase("verify"):
            counts = self._verify(source, candidate_pts, p)
        keep = counts <= p
        return OutlierResult(
            indices=candidate_idx[keep],
            neighbor_counts=counts[keep],
            n_passes=source.passes,
            n_candidates=candidate_idx.shape[0],
        )

    def estimate_outlier_count(
        self, data, *, stream: DataStream | None = None
    ) -> int:
        """One-pass estimate of the number of DB(p, k) outliers.

        Counts points whose *expected* neighbour count is at most ``p``
        — no verification pass, so this is the cheap exploration tool
        the paper describes for tuning ``p`` and ``k``.
        """
        source = stream if stream is not None else as_stream(data)
        estimator = self._resolve_estimator(source)
        p = resolve_p(self.p, self.fraction, len(source))
        count = 0
        for _start, chunk in source.iter_with_offsets():
            _rows, expected = self._expected_neighbors(chunk, estimator, p + 1)
            count += int((expected <= p + 1).sum())
        return count

    # -- stages ------------------------------------------------------------------

    def _resolve_estimator(self, source: DataStream) -> DensityEstimator:
        estimator = self.estimator
        if estimator is None:
            estimator = KernelDensityEstimator(
                n_kernels=1000, random_state=self.random_state
            )
        if getattr(estimator, "n_points_", None) is None:
            estimator.fit(stream=source)
        self.estimator_ = estimator
        return estimator

    def _expected_neighbors(
        self,
        chunk: np.ndarray,
        estimator: DensityEstimator,
        threshold: float,
        quota: int = 0,
        kept: np.ndarray = np.empty(0),
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, N'(O, k))`` of the chunk rows that can matter.

        A row left out has ``N'`` above ``threshold`` and, when
        ``quota`` is positive, above the ``quota``-th smallest of the
        values in ``kept`` (the running selection's) and those found
        here: it is neither below the threshold nor among the sparsest
        ``quota`` rows. The volume screen bounds every row by
        ``density_lower_bound(x) * Vol(Ball(k))``, a lower bound on the
        float64 ``N'`` itself, and evaluates through
        :func:`evaluate_chunks` only rows the bound cannot clear, in
        rounds: first those at most ``threshold`` plus the ``quota``
        smallest bounds (stable order) at most that cutoff, then the
        next smallest bounds still at most the cutoff the values found
        so far give, twice as many each round, until none is left. The
        rounds stop close to the rows that decide the cutoff, however
        loose the bound. Which rows are evaluated depends only on the
        data, never on the worker count. The Monte-Carlo screen may draw
        from a shared generator, so it evaluates every row, serially.
        """
        if self.screen == "montecarlo":
            return np.arange(chunk.shape[0]), estimator.ball_mass(
                chunk, self.k, n_mc=self.n_mc, random_state=self.random_state
            )
        volume = ball_volume(self.k, estimator.n_dims_)
        bound = _density_lower_bound(estimator, chunk) * volume
        # ``not >`` keeps NaN bounds: only a proven bound clears a row.
        first = np.flatnonzero(~(bound > threshold))
        # The other rows in ascending bound order (stable); the rounds
        # take them from the front while their bound is at most the
        # cutoff.
        rest = np.flatnonzero(bound > threshold) if quota else first[:0]
        rest = rest[np.argsort(bound[rest], kind="stable")]
        ranked = bound[rest]
        # ``kept`` is sorted with NaN last, and a NaN cutoff clears
        # nothing: ``searchsorted`` places NaN after every bound.
        cutoff = kept[quota - 1] if quota and kept.size >= quota else np.inf
        row_parts = [first[:0]]
        value_parts = [np.empty(0)]
        taken, batch = 0, quota
        while True:
            stop = min(taken + batch, np.searchsorted(ranked, cutoff, "right"))
            new = np.sort(np.concatenate([first, rest[taken : max(taken, stop)]]))
            first, taken = first[:0], max(taken, stop)
            if not new.size:
                break
            row_parts.append(new)
            value_parts.append(_evaluate_rows(estimator, chunk, new) * volume)
            if not quota:
                break
            # Fewer than ``quota`` values means every open row is in.
            values = np.concatenate([kept, *value_parts])
            if values.size >= quota:
                # NaN values sort last.
                kth = np.partition(values, quota - 1)[quota - 1]
                cutoff = np.fmin(cutoff, kth)
            batch *= 2
        rows = np.concatenate(row_parts)
        get_recorder().count("screen_rows_pruned", chunk.shape[0] - rows.size)
        return rows, np.concatenate(value_parts)

    def _screen(
        self, source: DataStream, estimator: DensityEstimator, p: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single pass over the data keeping likely outliers.

        Keeps the union of (a) points whose expected neighbour count is
        below the slack-scaled DB bound and (b) the ``candidate_quantile``
        sparsest points overall, ties going to the lower row index. (b)
        is a running selection merged with each chunk, so one pass
        suffices (the dataset cardinality is known up front, as the
        paper assumes). The selection's values, with those of the
        chunk, cap the quota's cutoff, so rows whose density bound is
        above it are never evaluated.
        """
        threshold = self.slack * (p + 1)
        quota = int(np.ceil(self.candidate_quantile * len(source)))
        below_rows: list[np.ndarray] = []
        below_pts: list[np.ndarray] = []
        sparsest = (
            np.empty(0),
            np.empty(0, dtype=np.int64),
            np.empty((0, source.n_dims)),
        )
        for start, chunk in source.iter_with_offsets():
            rows, expected = self._expected_neighbors(
                chunk, estimator, threshold, quota, sparsest[0]
            )
            keep = rows[expected <= threshold]
            below_rows.append(start + keep)
            below_pts.append(chunk[keep])
            if quota:
                offered = (expected, start + rows, chunk[rows])
                sparsest = _keep_sparsest(sparsest, offered, quota)
        rows = np.concatenate([*below_rows, sparsest[1]])
        points = np.concatenate([*below_pts, sparsest[2]])
        indices, first = np.unique(rows, return_index=True)
        return indices, points[first]

    def _verify(
        self, source: DataStream, candidates: np.ndarray, p: int | None = None
    ) -> np.ndarray:
        """Neighbour counts of the candidates in one pass, exact up to ``p``.

        Each chunk is counted by :func:`count_within`, which skips the
        cell tiles beyond ``k`` of a candidate. A candidate stops being
        counted once it has more than ``p`` neighbours: its count is then
        some value above ``p`` (a known non-outlier), while every count
        up to ``p`` is exact. ``p`` defaults to the detector's own
        threshold. The pass holds the candidates, ``O(tile * b)``
        distance scratch and the chunk's ``O(chunk)`` cell order.
        """
        counts = np.zeros(candidates.shape[0], dtype=np.int64)
        if candidates.shape[0] == 0:
            return counts
        if p is None:
            p = resolve_p(self.p, self.fraction, len(source))
        k_sq = self.k * self.k
        open_rows = np.arange(candidates.shape[0])
        for chunk in source:
            if open_rows.size == 0:
                continue
            counts[open_rows] += count_within(candidates[open_rows], chunk, k_sq)
            # A candidate is its own zero-distance neighbour in the
            # scan, so more than p neighbours is a count above p + 1.
            open_rows = open_rows[counts[open_rows] <= p + 1]
        return counts - 1


def _density_lower_bound(estimator, chunk: np.ndarray) -> np.ndarray:
    """The estimator's density lower bound at the chunk rows.

    Zero, which clears nothing, for a duck-typed estimator without one.
    """
    bound = getattr(estimator, "density_lower_bound", None)
    return np.zeros(chunk.shape[0]) if bound is None else bound(chunk)


def _evaluate_rows(
    estimator: DensityEstimator, chunk: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Densities at ``chunk[rows]``, through the one density fan-out."""
    if rows.size == 0:
        return np.empty(0)
    subset = chunk if rows.size == chunk.shape[0] else chunk[rows]
    [(_offset, _subset, values)] = evaluate_chunks(
        [(0, subset)], estimator.evaluate
    )
    return values


def _keep_sparsest(kept, offered, quota: int):
    """The ``quota`` lowest ``(value, row)`` entries of two selections.

    ``kept`` and ``offered`` are ``(values, rows, points)`` triples; the
    result is one too, ordered by value and then by row index.
    """
    values, rows, points = (np.concatenate(pair) for pair in zip(kept, offered))
    order = np.lexsort((rows, values))[:quota]
    return values[order], rows[order], points[order]
