"""The paper's density-screened DB(p, k) outlier detector (section 3.2).

The idea: a DB(p, k) outlier has at most ``p`` points within distance
``k``, so its *expected* neighbour count under the density estimate,

``N'(O, k) = integral over Ball(O, k) of f``,

must be small. One pass over the data evaluates ``N'`` for every point
and keeps the ones below a slack-scaled threshold as *likely outliers*;
a second pass verifies the true neighbour count of each candidate. The
density fit itself takes one earlier pass, matching the paper's "at most
two dataset passes plus the pass that computes the density estimator".

The same screening machinery also estimates the *number* of DB(p, k)
outliers in a single pass — the paper highlights this as a cheap way to
explore ``p`` and ``k`` before committing to a full run.

Both passes consume hardened streams (see :mod:`repro.faults`): under a
quarantine policy the detector only ever sees — and reports indices
into — the surviving rows, and the screen/verify passes observe the
identical survivor set because persistent faults are keyed by chunk.
"""

from __future__ import annotations

import numpy as np

from repro.density.base import DensityEstimator
from repro.density.kde import KernelDensityEstimator
from repro.exceptions import ParameterError
from repro.obs import get_recorder
from repro.outliers.base import OutlierDetector, OutlierResult, resolve_p
from repro.sharding import evaluate_chunks
from repro.utils.geometry import ball_volume, sq_distances_to
from repro.utils.streams import DataStream, as_stream
from repro.utils.validation import check_positive

__all__ = ["ApproximateOutlierDetector"]


class ApproximateOutlierDetector(OutlierDetector):
    """Density screening + exact verification for DB(p, k) outliers.

    Dataset passes: 3 — ``fit_density`` (when the estimator arrives
    unfitted), the ``screen`` scan that evaluates each point's
    approximate neighbourhood mass, and the ``verify`` scan that counts
    exact neighbours of the surviving candidates.

    Memory: O(n) — the screen heap may hold every point when the
    candidate fraction is 1; fitting is O(m) and verification keeps
    only the O(b) surviving candidates.

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

    #: Per-phase dataset scans of detect() (audited statically by RA001).
    __n_passes__ = {"fit_density": 1, "screen": 1, "verify": 1}

    #: Per-phase peak-allocation bounds of detect() (audited by RA005).
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
            counts = self._verify(source, candidate_pts)
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
        for _start, _chunk, expected in self._expected_neighbors(
            source.iter_with_offsets(), estimator
        ):
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

    def _expected_neighbors(self, chunks, estimator: DensityEstimator):
        """``(offset, chunk, N'(O, k))`` per chunk, in stream order.

        The volume screen fans out through :func:`evaluate_chunks`; the
        Monte-Carlo screen may draw from a shared generator, so it stays
        serial.
        """
        if self.screen == "volume":
            volume = ball_volume(self.k, estimator.n_dims_)
            evaluated = evaluate_chunks(chunks, estimator.evaluate)
            return ((at, chunk, f * volume) for at, chunk, f in evaluated)
        return (
            (at, chunk, estimator.ball_mass(
                chunk, self.k, n_mc=self.n_mc, random_state=self.random_state
            ))
            for at, chunk in chunks
        )

    def _screen(
        self, source: DataStream, estimator: DensityEstimator, p: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single pass over the data keeping likely outliers.

        Keeps the union of (a) points whose expected neighbour count is
        below the slack-scaled DB bound and (b) the
        ``candidate_quantile`` sparsest points overall — (b) is tracked
        with a bounded max-heap so one pass suffices (the dataset
        cardinality is known up front, as the paper assumes).
        """
        import heapq

        recorder = get_recorder()
        threshold = self.slack * (p + 1)
        quota = int(np.ceil(self.candidate_quantile * len(source)))
        below: dict[int, np.ndarray] = {}
        # Max-heap (via negation) of the `quota` sparsest points seen.
        sparsest: list[tuple[float, int, np.ndarray]] = []
        for start, chunk, expected in self._expected_neighbors(
            source.iter_with_offsets(), estimator
        ):
            for keep_local in np.nonzero(expected <= threshold)[0]:
                below[start + int(keep_local)] = chunk[keep_local]
            if quota:
                for local, value in enumerate(expected):
                    entry = (-float(value), start + local, chunk[local])
                    if len(sparsest) < quota:
                        heapq.heappush(sparsest, entry)
                        recorder.count("heap_pushes")
                    elif value < -sparsest[0][0]:
                        heapq.heapreplace(sparsest, entry)
                        recorder.count("heap_pushes")
        for _, idx, point in sparsest:
            below.setdefault(idx, point)
        if not below:
            return np.empty(0, dtype=np.int64), np.empty((0, source.n_dims))
        indices = np.array(sorted(below), dtype=np.int64)
        points = np.vstack([below[int(i)] for i in indices])
        return indices, points

    def _verify(
        self, source: DataStream, candidates: np.ndarray
    ) -> np.ndarray:
        """Exact neighbour counts of the candidates in one pass."""
        counts = np.zeros(candidates.shape[0], dtype=np.int64)
        if candidates.shape[0] == 0:
            return counts
        recorder = get_recorder()
        k_sq = self.k * self.k
        for chunk in source:
            recorder.count(
                "distance_evals", candidates.shape[0] * chunk.shape[0]
            )
            d = sq_distances_to(candidates, chunk)
            counts += (d <= k_sq).sum(axis=1)
        # A candidate is its own zero-distance neighbour in the scan.
        return counts - 1
