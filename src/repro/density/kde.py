"""Kernel density estimation fit in one dataset pass.

This is the estimator the paper builds its sampler on (section 2.2,
following Gunopulos et al. SIGMOD 2000): kernel centers are a uniform
random sample of the dataset — collected with reservoir sampling during
the same pass that accumulates the streaming moments used by the
bandwidth rule — and the estimate is a product-kernel sum scaled so it
integrates to ``n`` over the data domain:

``f(x) = (n / m) * sum_{i=1..m} prod_j K((x_j - c_ij) / h_j) / h_j``

where ``m`` is the number of kernels, ``c_i`` the centers and ``h_j`` the
per-attribute bandwidths.

Evaluation is blocked over row tiles. For kernels with compact support
(every kernel but the Gaussian) the rows are visited in grid-cell
order and tiled along whole cells; each tile computes only the centres
its bounding box can reach and scatters them into dense rows kept
``+0.0`` outside those columns. The skipped pairs are exactly ``+0.0``
in the full sum too, so the output is byte-identical to computing
every (row, centre) pair (DESIGN.md, the ``"kde"`` backend).
"""

from __future__ import annotations

import numpy as np

from repro.density.bandwidth import resolve_bandwidth
from repro.density.base import DensityEstimator
from repro.density.kernels import get_kernel
from repro.density.reservoir import ReservoirSampler
from repro.exceptions import ParameterError
from repro.obs import get_recorder
from repro.sharding import ShardPlan, fit_shards, merge_partials, resolve_shards
from repro.utils.geometry import cell_order, cell_tiles
from repro.utils.streams import DataStream
from repro.utils.validation import check_random_state

__all__ = ["KernelDensityEstimator", "chunk_moment_stats"]

#: Scratch budget (elements) of the blocked kernel sum. It caps every
#: ``(rows, candidates)`` block a tile computes, and ``budget // m`` is
#: both the row count small grid cells merge up to and the depth of
#: the dense ``(rows, m)`` scatter block. Three product buffers of this
#: many float64 elements plus the dense rows stay around 2 MB, inside
#: a typical per-core L2 working set.
_EVAL_TILE_ELEMENTS = 65536

#: A row tile with more than this fraction of the ``m`` centres as
#: candidates evaluates all ``m`` columns, without gather or scatter.
_DENSE_FRACTION = 0.5


def chunk_moment_stats(chunk: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """One chunk's ``(count, mean, m2)`` moment statistics.

    This is the per-chunk half of the Welford update, split out so
    shard workers can compute it remotely: the fold half
    (:meth:`_StreamingMoments.merge_stats`) is not FP-associative and
    must run on the coordinator in global chunk order to stay
    byte-identical for any shard count.
    """
    # Data near the float64 limit overflows the squares to inf; the fit
    # then raises a located ParameterError from the bandwidth rule, so
    # numpy's unlocated overflow warning would only mislead.
    with np.errstate(over="ignore"):
        mean_b = chunk.mean(axis=0)
        m2_b = ((chunk - mean_b) ** 2).sum(axis=0)
    return chunk.shape[0], mean_b, m2_b


class _StreamingMoments:
    """Chunk-merged Welford accumulator for per-attribute mean/variance."""

    def __init__(self) -> None:
        self.count = 0
        self.mean: np.ndarray | None = None
        self.m2: np.ndarray | None = None

    def merge_stats(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
        """Fold one chunk's ``(count, mean, m2)`` into the running state.

        The fit replays the per-chunk statistics in global chunk order,
        so the fitted moments are byte-identical for any shard count.
        """
        if count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = count, mean, m2
            return
        delta = mean - self.mean
        total = self.count + count
        # Overflow to inf is reported by the bandwidth rule, located
        # (see chunk_moment_stats).
        with np.errstate(over="ignore"):
            self.mean = self.mean + delta * (count / total)
            self.m2 = self.m2 + m2 + delta**2 * (self.count * count / total)
        self.count = total

    @property
    def std(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.mean)
        return np.sqrt(self.m2 / (self.count - 1))


class KernelDensityEstimator(DensityEstimator):
    """Product-kernel density estimator with reservoir-sampled centers.

    Dataset passes: 1 — centers (reservoir) and bandwidth moments are
    both collected in the single fit scan.

    Memory: O(m) — the reservoir of ``n_kernels`` centers plus
    per-attribute moment vectors; evaluation works block by block.

    Parameters
    ----------
    n_kernels:
        Number of kernel centers (the paper recommends 1000; Figure 7
        sweeps 100-1200).
    kernel:
        Kernel name or instance; the paper uses ``"epanechnikov"``.
    bandwidth:
        ``"scott"`` (default), ``"silverman"``, a positive scalar, or a
        per-attribute vector of widths.
    random_state:
        Seed for the reservoir that picks the centers.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(5000, 2))
    >>> kde = KernelDensityEstimator(n_kernels=200, random_state=0).fit(data)
    >>> float(kde.evaluate([[0.0, 0.0]])[0]) > float(kde.evaluate([[4.0, 4.0]])[0])
    True
    """

    __n_passes__ = 1

    #: Peak working-memory bound of fit()/evaluate() (audited by RA005).
    __space__ = "O(m)"

    def __init__(
        self,
        n_kernels: int = 1000,
        kernel: str = "epanechnikov",
        bandwidth="scott",
        random_state=None,
    ) -> None:
        if n_kernels < 1:
            raise ParameterError(f"n_kernels must be >= 1; got {n_kernels}.")
        self.n_kernels = int(n_kernels)
        self.kernel = get_kernel(kernel)
        self.bandwidth = bandwidth
        self.random_state = random_state
        # Fitted state
        self.centers_: np.ndarray | None = None
        self.bandwidths_: np.ndarray | None = None
        self.n_points_: int | None = None
        self.n_dims_: int | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, data=None, *, stream: DataStream | None = None):
        """Fit in a single pass: reservoir centers + streaming moments.

        The pass is a :class:`~repro.sharding.ShardPlan` scan over the
        ambient shard count (``repro run --shards`` / ``REPRO_SHARDS``
        / :func:`repro.sharding.use_shards`, default ``1``). The
        coordinator draws the data-free reservoir acceptance plan, the
        scan fetches the planned rows and per-chunk moment statistics,
        and :meth:`fit_from_partials` assembles them — byte-identical
        for any shard count (DESIGN.md §13). At ``S = 1`` the scan runs
        inline on the caller.
        """
        source = self._as_stream(data, stream)
        rng = check_random_state(self.random_state)
        reservoir = ReservoirSampler(self.n_kernels, random_state=rng)
        plan = ShardPlan(source, resolve_shards(None))
        accept_plan = reservoir.plan(plan.n_rows)
        state = fit_shards(plan, accept_plan.wanted_indices())
        get_recorder().count("reservoir_accepts", accept_plan.accepts)
        return self.fit_from_partials([state], accept_plan)

    def fit_from_partials(self, partials, plan):
        """Assemble a fitted estimator from shard partial-fit states.

        Parameters
        ----------
        partials:
            ``ShardFitState`` partials in shard (stream) order — one
            per shard, or a single already-folded state.
        plan:
            The :class:`~repro.density.reservoir.ReservoirPlan` the
            shard row fetches were planned against.
        """
        state = merge_partials(list(partials))
        moments = _StreamingMoments()
        for count, mean, m2 in state.chunk_stats:
            moments.merge_stats(count, mean, m2)
        if moments.count == 0:
            raise ParameterError("cannot fit a density estimator on no data.")
        if moments.count != plan.n_rows:
            raise ParameterError(
                f"shard partials cover {moments.count} row(s) but the "
                f"reservoir plan was drawn for {plan.n_rows}; the plan "
                "must be drawn against the same stream the shards read."
            )
        self.n_points_ = moments.count
        self.centers_ = plan.assemble(*state.fetched_rows())
        self.n_dims_ = self.centers_.shape[1]
        self.bandwidths_ = resolve_bandwidth(
            self.bandwidth,
            moments.std,
            self.n_points_,
            self.n_dims_,
            self.kernel,
            scale=float(np.abs(moments.mean).max()),
        )
        return self

    def fit_from_centers(self, centers, n_points: int, bandwidths, std=None):
        """Construct a fitted estimator from precomputed pieces.

        Useful for tests and for transplanting an estimator between
        processes without refitting.

        Parameters
        ----------
        centers:
            Kernel centers, shape ``(m, d)``.
        n_points:
            Dataset size the estimator represents.
        bandwidths:
            Numeric bandwidths (scalar or per-attribute vector), or a
            rule name (``"scott"`` / ``"silverman"``) — the latter only
            together with ``std``: a rule resolved against fabricated
            unit spreads would silently produce wrong widths.
        std:
            Per-attribute standard deviations of the *dataset* (not of
            the centers), required when ``bandwidths`` is a rule name.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        self.centers_ = centers
        self.n_points_ = int(n_points)
        self.n_dims_ = centers.shape[1]
        if isinstance(bandwidths, str) and std is None:
            raise ParameterError(
                f"bandwidth rule {bandwidths!r} needs the dataset's "
                "per-attribute standard deviations; pass std= or give "
                "numeric bandwidths."
            )
        self.bandwidths_ = resolve_bandwidth(
            bandwidths,
            np.ones(self.n_dims_) if std is None else np.asarray(
                std, dtype=np.float64
            ),
            self.n_points_,
            self.n_dims_,
            self.kernel,
        )
        return self

    # -- evaluation --------------------------------------------------------------

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        if points.shape[0] < 2 or not np.isfinite(self.kernel.support):
            return self._evaluate_block(points)
        # Visit the rows in grid-cell order, cells one kernel support
        # wide, so the block can tile along whole cells and each tile's
        # candidate-centre set stays small. Each row's value is
        # row-local, so the permutation leaves every output byte
        # unchanged.
        order, starts = cell_order(
            points, self.bandwidths_ * self.kernel.support
        )
        out = np.empty(points.shape[0], dtype=np.float64)
        out[order] = self._evaluate_block(points[order], starts)
        return out

    def _can_prune(self) -> bool:
        """Whether skipped columns are provably ``+0.0`` in the dense sum.

        Needs a compact support and widths ``h > 0`` (so the division
        rounds monotonically). Every registered profile is at most 1,
        so a row's running product over the first ``j`` attributes is
        at most ``prod 1/h``; while those partial products stay finite,
        a zero factor keeps the product ``+0.0`` instead of meeting an
        ``inf`` and turning into NaN.
        """
        if not np.isfinite(self.kernel.support):
            return False
        with np.errstate(divide="ignore", over="ignore"):
            bound = np.cumprod(1.0 / self.bandwidths_)
        return bool(np.all(self.bandwidths_ > 0) and np.all(np.isfinite(bound)))

    def _candidates(
        self, lo: np.ndarray, hi: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        """Which centres may be non-zero for some row of each tile.

        Tile ``i`` has the bounding box ``[lo[i], hi[i]]``; the result
        is a ``(tiles, m)`` mask. A centre is kept when, in every
        attribute, the box reaches within the support. The test uses the
        dense path's own subtract-then-divide: both round monotonically,
        so ``lo <= x <= hi`` gives ``fl((lo-c)/h) <= fl((x-c)/h) <=
        fl((hi-c)/h)``, and every pair the dense path can find non-zero
        is kept — no margin needed. NaN coordinates are left out of the
        box (their pairs are zero anyway); infinities only widen it.
        ``columns`` holds the centres attribute-major, shape ``(d, m)``.
        """
        support = self.kernel.support
        keep = np.ones((lo.shape[0], columns.shape[1]), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, column in enumerate(columns):
                h = self.bandwidths_[j]
                keep &= (lo[:, j, None] - column) / h <= support
                keep &= (hi[:, j, None] - column) / h >= -support
        return keep

    def _evaluate_block(
        self, block: np.ndarray, cell_starts: np.ndarray | None = None
    ) -> np.ndarray:
        """Densities at the rows of ``block``.

        ``cell_starts`` lists the rows where a new grid cell begins when
        ``block`` is in cell order (see :meth:`_evaluate`); tiles then
        follow whole cells. ``None`` makes every row its own cell.
        """
        m = self.centers_.shape[0]
        rows = int(block.shape[0])
        recorder = get_recorder()
        # One kernel evaluation = one logical (query point, center)
        # pair, whether computed or skipped as provably zero.
        recorder.count("kernel_evals", rows * m)
        # Tiling is over rows only: each row's product chain and its
        # axis-1 pairwise sum are row-local, so the output is
        # byte-identical to an untiled evaluation for any tiling.
        tile_rows = max(1, _EVAL_TILE_ELEMENTS // m)
        tiles = cell_tiles(cell_starts, rows, tile_rows)
        # Every (r, k) block below has r * k <= max(budget, m) elements.
        size = min(rows * m, max(_EVAL_TILE_ELEMENTS, m))
        u, prof, weights = np.empty((3, size))
        densities = np.empty(rows)
        prune = self._can_prune()
        if prune:
            # The (r, m) rows the pairwise sum reads on the candidate
            # route. Columns outside the ``live`` candidate set stay
            # +0.0, so a tile writes only its own columns, after
            # clearing the previous tile's.
            dense = np.zeros((min(rows, tile_rows), m))
            live = np.empty(0, dtype=np.intp)
            # Tile bounding boxes; fmin/fmax skip NaN.
            heads = [t0 for t0, _ in tiles]
            lo = np.fmin.reduceat(block, heads, axis=0)
            hi = np.fmax.reduceat(block, heads, axis=0)
        # Attribute-major centres: each attribute's centre coordinates
        # are one contiguous row, for the candidate test and the
        # per-attribute subtract alike.
        columns = np.ascontiguousarray(self.centers_.T)
        pairs = 0
        with recorder.phase("kde_eval_block") as span:
            for i, (t0, t1) in enumerate(tiles):
                # With a compact support, compute only the tile's
                # candidate columns — unless they are more than half of
                # m, where skipping the rest saves little next to the
                # gather and scatter.
                cand = None
                if prune:
                    # One candidate test per ``tile_rows`` tiles keeps
                    # its (tiles, m) mask within the budget.
                    g = i % tile_rows
                    if g == 0:
                        masks = self._candidates(
                            lo[i : i + tile_rows], hi[i : i + tile_rows], columns
                        )
                    cand = np.flatnonzero(masks[g])
                    if cand.size > _DENSE_FRACTION * m:
                        cand = None
                    else:
                        dense[:, live] = 0.0
                        live = cand
                centers = columns if cand is None else columns[:, cand]
                k = centers.shape[1]
                pairs += (t1 - t0) * k
                # A cell too large for the budget runs in sub-tiles
                # that share its candidate set.
                step = max(1, _EVAL_TILE_ELEMENTS // max(1, k))
                for start in range(t0, t1, step):
                    stop = min(t1, start + step)
                    ww = self._tile_products(
                        block[start:stop], centers, u, prof, weights
                    )
                    if cand is None:
                        np.sum(ww, axis=1, out=densities[start:stop])
                        continue
                    # Scatter into the dense rows: every skipped pair is
                    # exactly +0.0 there too, so the full-row pairwise
                    # sum sees the dense path's inputs and returns the
                    # same bits.
                    for a in range(0, stop - start, dense.shape[0]):
                        b = min(stop - start, a + dense.shape[0])
                        dense[: b - a, cand] = ww[a:b]
                        np.sum(
                            dense[: b - a],
                            axis=1,
                            out=densities[start + a : start + b],
                        )
            densities *= self.n_points_ / m
            span.set(rows=rows, centers=m, pairs=pairs, tiles=len(tiles))
        if recorder.enabled:
            recorder.observe("kde_eval_chunk_seconds", span.elapsed)
            if span.elapsed > 0:
                recorder.observe(
                    "kde_eval_rows_per_second", rows / span.elapsed
                )
        return densities

    def _tile_products(self, rows, centers, u, prof, weights) -> np.ndarray:
        """Product-kernel weights of ``rows`` against ``centers``.

        Returns an ``(r, k)`` view over the front of ``weights``, using
        the fronts of ``u`` and ``prof`` as scratch, so nothing is
        allocated. The product over attributes accumulates one
        attribute at a time, never as an ``(r, k, d)`` tensor.
        Attribute 0's factor is written straight into the product: the
        oracle's ``1.0 * x`` is ``x`` bit for bit, NaN and inf included.
        """
        r, k = rows.shape[0], centers.shape[1]
        uu = u[: r * k].reshape(r, k)
        pp = prof[: r * k].reshape(r, k)
        ww = weights[: r * k].reshape(r, k)
        for j in range(self.n_dims_):
            h = self.bandwidths_[j]
            np.subtract(rows[:, j, None], centers[j], out=uu)
            uu /= h
            factor = ww if j == 0 else pp
            self.kernel.profile(uu, out=factor)
            factor /= h
            if j:
                ww *= pp
        return ww

