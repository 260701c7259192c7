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

import math
from functools import partial

import numpy as np

from repro.density.bandwidth import resolve_bandwidth
from repro.density.base import DensityEstimator
from repro.density.kernels import (
    BiweightKernel,
    EpanechnikovKernel,
    TriangularKernel,
    UniformKernel,
    get_kernel,
)
from repro.density.reservoir import ReservoirSampler
from repro.exceptions import ParameterError
from repro.obs import get_recorder
from repro.sharding import ShardPlan, resolve_shards, shard_map
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

#: Finest subdivision ``Q`` of the density lower bound's grid: its
#: cells are ``h_j * support / Q`` wide in attribute ``j``. The grid
#: takes the finest ``Q`` from this cap down to 2 that fits the cell
#: budget. The cap keeps ``d * Q <= 128``, which the bound's rounding
#: margin relies on (DESIGN.md §4, "Screen bound").
_BOUND_SUBDIVISION = 64

#: Cell budget of the padded bound grid: 4 MB of float64. A finer grid
#: clears more of the rows just above the outlier screen's quota
#: cutoff, whose number varies most from one input to the next.
_BOUND_GRID_CELLS = 2**19

#: Cells per block of the bound grid's banded convolution (see
#: :func:`_convolve_axis`); at least the largest ``Q - 2``.
_CONVOLVE_BLOCK = 64

#: The bound is scaled by this relative margin below 1. It absorbs the
#: rounding of the evaluation (about ``m`` ulps for a sum of ``m``
#: non-negative terms) and of the bound itself, for any ``m`` below
#: 10**9 (DESIGN.md §4, "Screen bound").
_BOUND_MARGIN = 1.0 - 2.0**-20

#: Profiles non-increasing in ``|u|`` on their compact support: the
#: kernel factor of a pair is at least the profile at the pair's
#: largest possible offset.
_MONOTONE_PROFILES = (
    EpanechnikovKernel,
    UniformKernel,
    TriangularKernel,
    BiweightKernel,
)


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


def _fit_chunk(wanted: np.ndarray, offset: int, chunk: np.ndarray):
    """One chunk of the fit scan: ``(moment stats, indices, rows)``.

    ``wanted`` holds the sorted absolute row indices the reservoir
    acceptance plan needs; ``rows[i]`` is the chunk's row at absolute
    index ``indices[i]``. Generator-free: the coordinator drew the plan
    up front, and it folds the moment statistics itself.
    """
    lo, hi = np.searchsorted(wanted, (offset, offset + chunk.shape[0]))
    indices = wanted[lo:hi]
    return chunk_moment_stats(chunk), indices, chunk[indices - offset]


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
    :meth:`density_lower_bound` caches a grid of at most
    ``_BOUND_GRID_CELLS`` cells (4 MB) on first use.

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

    #: Peak working-memory bound of fit()/evaluate() (runtime-checked).
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
        self._bound_grid_: tuple | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, data=None, *, stream: DataStream | None = None):
        """Fit in a single pass: reservoir centers + streaming moments.

        The pass is one :func:`~repro.sharding.shard_map` scan over the
        ambient shard count (``repro run --shards`` / ``REPRO_SHARDS``
        / :func:`repro.sharding.use_shards`, default ``1``). The
        coordinator draws the data-free reservoir acceptance plan; the
        scan returns each chunk's moment statistics and planned rows in
        stream order; the coordinator then folds the moments and
        assembles the reservoir in global chunk order — byte-identical
        for any shard count (DESIGN.md §13). At ``S = 1`` the scan runs
        inline on the caller. Raises :class:`ParameterError` when the
        stream is empty or yields a row count other than the one its
        ``chunk_sizes()`` advertised (the plan was drawn against it).
        """
        source = self._as_stream(data, stream)
        self._bound_grid_ = None
        rng = check_random_state(self.random_state)
        reservoir = ReservoirSampler(self.n_kernels, random_state=rng)
        plan = ShardPlan(source, resolve_shards(None))
        accept_plan = reservoir.plan(plan.n_rows)
        chunks = shard_map(
            plan, partial(_fit_chunk, accept_plan.wanted_indices()), fit=True
        )
        get_recorder().count("reservoir_accepts", accept_plan.accepts)
        moments = _StreamingMoments()
        for stats, _indices, _rows in chunks:
            moments.merge_stats(*stats)
        if moments.count == 0:
            raise ParameterError("cannot fit a density estimator on no data.")
        if moments.count != accept_plan.n_rows:
            raise ParameterError(
                f"the fit scan covered {moments.count} row(s) but the "
                f"reservoir plan was drawn for {accept_plan.n_rows}; the "
                "stream must yield the rows its chunk_sizes() advertise."
            )
        self.n_points_ = moments.count
        self.centers_ = accept_plan.assemble(
            np.concatenate([indices for _stats, indices, _rows in chunks]),
            np.concatenate([rows for _stats, _indices, rows in chunks]),
        )
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
        self._bound_grid_ = None
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

    def density_lower_bound(self, points) -> np.ndarray:
        """Per-row lower bound on :meth:`evaluate`, one grid lookup each.

        The bound of a row is the cached grid value of its cell (see
        :meth:`_bound_grid`); rows off the grid, NaN and infinite rows
        get ``0.0``, and so does every row when the grid cannot be
        built (Gaussian kernel, ``h <= 0`` in some attribute,
        non-finite centres, or no grid within the cell budget). Every
        value is at most the float64 value :meth:`evaluate` returns
        for the row (DESIGN.md §4, "Screen bound").
        """
        points = self._query_points(points)
        if self._bound_grid_ is None:
            self._bound_grid_ = self._bound_grid()
        origin, width, pad, table = self._bound_grid_
        with np.errstate(over="ignore", invalid="ignore"):
            cells = np.floor((points - origin) / width) + pad
        # NaN compares false, so NaN cells are off the grid too.
        inside = np.all((cells >= 0) & (cells < table.shape), axis=1)
        bound = np.zeros(points.shape[0])
        bound[inside] = table[tuple(cells[inside].astype(np.intp).T)]
        return bound

    def _bound_grid(self) -> tuple:
        """``(origin, width, pad, table)`` of the density lower bound.

        Attribute ``j`` is cut into cells ``width_j = h_j * support / Q``
        wide from ``origin_j``, the smallest centre coordinate; a point's
        cell is ``floor((x - origin) / width)``, and ``table`` is indexed
        by that cell plus ``pad = Q - 2``. A row and a centre whose
        cells differ by ``delta_j`` are less than ``(|delta_j| + 1) *
        width_j`` apart, so their kernel factor is at least
        ``K((|delta_j| + 1) * support / Q) / h_j``; in the last
        attribute the centre's own place in its cell gives a tighter
        reach (see below). The table holds, per cell, the sum over
        centres of the products of those factors, over offsets
        ``|delta_j| <= Q - 2``: the farthest such pair is ``(Q - 1) /
        Q`` of the support apart, so rounding cannot carry it across
        the support's edge. ``Q`` is the finest subdivision up to
        :data:`_BOUND_SUBDIVISION` whose padded grid has at most
        :data:`_BOUND_GRID_CELLS` cells. Without a usable grid the
        table is empty and every bound is zero.
        """
        d = self.n_dims_
        no_grid = (np.zeros(d), np.ones(d), 0, np.zeros((0,) * d))
        centers, widths = self.centers_, self.bandwidths_
        if not (
            type(self.kernel) in _MONOTONE_PROFILES
            and self._can_prune()
            and np.all(np.isfinite(centers))
        ):
            return no_grid
        support = self.kernel.support
        origin = centers.min(axis=0)
        # Every Q at once, finest first. Rounding and floor are
        # monotone, so the largest coordinate gives the largest cell.
        qs = np.arange(_BOUND_SUBDIVISION, 1, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            top = np.floor(
                (centers.max(axis=0) - origin) / (widths * (support / qs[:, None]))
            )
            sizes = np.prod(top + 1 + 2 * (qs[:, None] - 2), axis=1)
        fitting = np.flatnonzero(sizes <= _BOUND_GRID_CELLS)
        if not fitting.size:
            return no_grid
        q = int(qs[fitting[0]])
        pad = q - 2
        width = widths * (support / q)
        cells = np.floor((centers - origin) / width) + pad
        shape = cells.max(axis=0) + 1 + pad
        # factors[j][pad + delta] bounds attribute j's kernel factor at
        # cell offset delta; index 0 (|delta| = pad) is the smallest.
        u = (np.abs(np.arange(-pad, pad + 1)) + 1.0) * (support / q)
        factors = [self.kernel.profile(u) / h for h in widths]
        scale = _BOUND_MARGIN * self.n_points_ / centers.shape[0]
        # Rounding errors are relative only for normal numbers: the cell
        # width, and every factor, partial product and scaled product a
        # counted pair goes through in the evaluation, must be normal.
        weakest = np.array([f[0] for f in factors])
        chain = np.cumprod(weakest)
        tiny = np.finfo(np.float64).tiny
        if min(width.min(), weakest.min(), chain.min(), chain[-1] * scale) < tiny:
            return no_grid
        shape = tuple(int(s) for s in shape)
        # The last attribute is spread centre by centre along the
        # centre's own line of cells, which the padding keeps on the
        # grid, from the centre's place in its cell: ``frac`` cells past
        # its low edge. A row ``delta`` cells away is less than the
        # farther end of its cell, ``max(|delta + 1 - frac|, |delta -
        # frac|) <= |delta| + 1`` cells, from the centre, so these
        # factors are at least ``factors[-1]``. The other attributes
        # are convolved, each along a leading axis of the C-ordered
        # table, so no pass transposes it.
        position = (centers[:, -1] - origin[-1]) / width[-1]
        frac = (position - np.floor(position))[:, None]
        delta = np.arange(-pad, pad + 1)
        reach = np.maximum(np.abs(delta + 1.0 - frac), np.abs(delta - frac))
        spread = self.kernel.profile(reach * (support / q)) / widths[-1]
        line = np.ravel_multi_index(tuple(cells.astype(np.intp).T), shape)
        table = np.bincount(
            (line[:, None] + delta).ravel(),
            weights=spread.ravel(),
            minlength=math.prod(shape),
        ).reshape(shape)
        for j in range(d - 1):
            table = _convolve_axis(table, factors[j], j)
        table *= scale
        if not np.all(np.isfinite(table)):
            return no_grid
        return origin, width, pad, table

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


def _convolve_axis(
    table: np.ndarray, factors: np.ndarray, axis: int
) -> np.ndarray:
    """``out[i] = sum_delta factors[delta] * table[i - delta]`` along ``axis``.

    ``factors`` has odd length ``2 * pad + 1`` and is indexed by
    ``delta + pad``; cells shifted past either end are dropped (the
    bound grid's padding keeps every centre's reach on the grid). The
    axis is cut into blocks of ``b`` cells, :data:`_CONVOLVE_BLOCK` or
    the whole axis if shorter, and never fewer than ``pad``, so an
    output block draws only on the input block at the same place and
    its two neighbours: three banded ``(b, b)`` matrices, each one
    matrix product over all blocks, make ``3 * b`` multiply-adds per
    cell. A fixed ``b`` keeps the cost per cell the same for every
    ``pad``. Every term is non-negative, so the order of the sum does
    not matter to the bound (DESIGN.md §4, "Screen bound").
    """
    pad = factors.shape[0] // 2
    src = np.moveaxis(table, axis, 0)
    n = src.shape[0]
    b = max(pad, min(n, _CONVOLVE_BLOCK))
    n_blocks = -(-n // b)
    # One block of zeros either side stands in for the dropped cells.
    padded = np.zeros(((n_blocks + 2) * b, *src.shape[1:]))
    padded[b : b + n] = src
    blocks = padded.reshape(n_blocks + 2, b, -1)
    # bands[t][r, s]: the factor from row s of the input block t - 1
    # places after an output block to that block's row r.
    delta = (1 - np.arange(3))[:, None, None] * b + np.subtract.outer(
        np.arange(b), np.arange(b)
    )
    near = np.abs(delta) <= pad
    bands = np.where(near, factors[np.where(near, delta + pad, 0)], 0.0)
    out = sum(bands[t] @ blocks[t : t + n_blocks] for t in range(3))
    out = out.reshape(n_blocks * b, *src.shape[1:])[:n]
    return np.ascontiguousarray(np.moveaxis(out, 0, axis))
