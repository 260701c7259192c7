"""Random-partition forest density estimator (tree backend).

The KDE hot path costs ``points x centers`` kernel evaluations per
query chunk. Following Wells & Ting ("A simple efficient density
estimator that enables fast systematic search"), this module trades the
kernel sum for ``T`` random axis-aligned partition trees built over the
data bounding box: each tree splits every box at a uniformly drawn
fraction of a uniformly drawn attribute, down to a fixed depth, and the
density at ``x`` is the average over trees of ``count(leaf(x)) /
volume(leaf(x))``. A lookup costs one binary search and one gather of
``T`` cell offsets per dimension, then ``T`` rate gathers (``T x
depth`` comparisons on the descent fallback) instead of O(m·d) kernel
products — and the estimate still integrates to ``n`` over the domain,
which is the normalisation the paper's biased-sampling algebra needs
(section 2.1).

Tree *structure* is drawn once, on the coordinator, from the seeded
generator, together with the overlay tables that route a row to its
leaf in every tree at once without walking the trees
(:class:`OverlayTables`): per dimension, one grid merging every tree's
thresholds. Both the counting scan and evaluation route through those
tables; the level-by-level :func:`tree_leaf_indices` descent is only
the fallback for forests too fine to tabulate (``_EVAL_CELL_CAP``).
The counting scan is pure integer accumulation.
Integer addition is exactly associative, so the counting scan's shard
partials merge byte-identically for any shard count (DESIGN.md §14) —
unlike the FP moment folds of the KDE fit, no ordering discipline is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.density.base import DensityEstimator
from repro.exceptions import ParameterError
from repro.obs import get_recorder
from repro.sharding import (
    ShardPlan,
    bounds_shards,
    resolve_shards,
    tree_count_shards,
)
from repro.utils.streams import DataStream
from repro.utils.validation import check_random_state

__all__ = [
    "OverlayTables",
    "TreeDensityEstimator",
    "forest_leaf_counts",
    "tree_leaf_indices",
]

#: Query rows routed per block: keeps each block's ``(rows, T)`` cell
#: and rate temporaries inside the cache while leaving the per-row
#: results — each row's route is independent — byte-identical for any
#: blocking.
_BLOCK_ROWS = 2048

#: Ceiling on routing-table rows per tree: the cells of any one tree
#: (product over dimensions of thresholds + 1) and the merged grid's
#: edges summed over dimensions. Above it — high-dimensional forests
#: where the per-dim threshold grid's cross product explodes, or
#: forests so large that the merged grid outgrows the cell tables —
#: both the counting scan and evaluation fall back to the
#: level-by-level descent.
_EVAL_CELL_CAP = 1 << 17

#: Split fractions are drawn from [_SPLIT_LO, 1 - _SPLIT_LO] of the
#: parent box width, so every child keeps at least a quarter of the
#: parent's extent and leaf volumes are bounded away from zero.
_SPLIT_LO = 0.25


def tree_leaf_indices(
    points: np.ndarray, features: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Leaf index of each query row in each tree, shape ``(T, rows)``.

    ``features`` / ``thresholds`` hold the forest in heap order — node
    ``i``'s children are ``2i+1`` (left, ``value <= threshold``) and
    ``2i+2`` — with shape ``(T, n_leaves - 1)``. The descent is
    vectorised level by level across all trees and rows at once, each
    level gathering the node's split from the flattened forest; points
    outside the fitted box follow the comparisons to the nearest edge
    leaf, mirroring the grid estimator's clamp semantics.
    """
    n_trees, n_internal = features.shape
    depth = int(n_internal + 1).bit_length() - 1
    rows = points.shape[0]
    flat_features = features.ravel()
    flat_thresholds = thresholds.ravel()
    tree_offsets = (np.arange(n_trees) * n_internal)[:, None]
    node = np.zeros((n_trees, rows), dtype=np.int64)
    cols = points.T
    col_ids = np.arange(rows)[None, :]
    for _level in range(depth):
        flat_node = node + tree_offsets
        feat = np.take(flat_features, flat_node)
        thr = np.take(flat_thresholds, flat_node)
        node = 2 * node + 1 + (cols[feat, col_ids] > thr)
    return node - n_internal


@dataclass(frozen=True)
class OverlayTables:
    """Structure-only routing tables of one forest, one grid per dimension.

    Each tree's leaves induce, per dimension, a sorted grid of the
    thresholds splitting that dimension; the leaf of a row is fully
    determined by its per-dim cell index ``#{grid < x}`` (the descent
    sends ``x > threshold`` right). A tree's thresholds below ``x`` are
    exactly those at or below the largest edge below ``x`` of the
    *merged* grid — the sorted union of every tree's thresholds — so
    one exact binary search per dimension, ``g = #{edges < x}``, routes
    the row in every tree at once: row ``g`` of ``steps`` holds all the
    trees' cell offsets for it. The tables depend only on the forest
    structure, so they are built with the trees and shipped, as plain
    arrays, to the counting scan's shard workers.

    Parameters
    ----------
    edges:
        Per dimension, the sorted union of every tree's thresholds.
    steps:
        Per dimension, an int32 table of shape ``(edges[j].size + 1,
        T)``: ``steps[j][g, t]`` is tree ``t``'s row-major cell stride
        on dimension ``j`` times its thresholds at or below
        ``edges[j][g - 1]``. Tree ``t``'s first cell is folded into
        dimension 0, so ``sum_j steps[j][g_j]`` is every tree's global
        cell.
    leaf_of_cell:
        Global leaf ``t * n_leaves + leaf`` of every cell of every tree
        (trees concatenated), in the narrowest unsigned dtype.
    """

    edges: tuple
    steps: tuple
    leaf_of_cell: np.ndarray

    @classmethod
    def build(cls, features, thresholds, leaf_lo, leaf_hi):
        """Tabulate a forest, or return ``None`` above the cell cap.

        ``leaf_lo`` / ``leaf_hi`` are the leaf bounding boxes, shape
        ``(T, n_leaves, d)``. Each leaf covers a box-shaped window of
        its tree's cells, and the windows of one tree tile its cells,
        so ``leaf_of_cell`` is painted with an integer difference
        array: ``±leaf`` at the window's corners by
        inclusion–exclusion, then a cumulative sum along every axis.
        Corners past a tree's last cell change no cell and are skipped,
        so a leaf's corners double only over the dimensions where its
        window ends inside the grid.
        """
        n_trees, n_leaves, n_dims = leaf_lo.shape
        edges, owners, ranks = [], [], []
        shapes = np.ones((n_trees, n_dims), dtype=np.int64)
        for j in range(n_dims):
            tree, node = np.nonzero(features == j)
            edge, rank = np.unique(thresholds[tree, node], return_inverse=True)
            # A tree's grid on dimension j is its distinct thresholds
            # there: one (tree, rank in edge) pair each.
            pairs = np.unique(tree * edge.size + rank)
            owner, rank = np.divmod(pairs, max(edge.size, 1))
            shapes[:, j] += np.bincount(owner, minlength=n_trees)
            edges.append(edge)
            owners.append(owner)
            ranks.append(rank)
        sizes = np.prod(shapes, axis=1, dtype=np.float64)  # no overflow
        if (
            sizes.max() > _EVAL_CELL_CAP
            or sum(edge.size for edge in edges) > _EVAL_CELL_CAP
            or sizes.sum() > np.iinfo(np.int32).max
        ):
            return None
        strides = np.ones_like(shapes)
        for j in range(n_dims - 2, -1, -1):
            strides[:, j] = strides[:, j + 1] * shapes[:, j + 1]
        n_cells = strides[:, 0] * shapes[:, 0]
        first_cell = np.cumsum(n_cells) - n_cells
        steps = []
        for j in range(n_dims):
            step = np.zeros((edges[j].size + 1, n_trees), dtype=np.int32)
            step[ranks[j] + 1, owners[j]] = strides[owners[j], j]
            np.cumsum(step, axis=0, dtype=np.int32, out=step)
            steps.append(step)
        # Each leaf's window per dimension, in stride units: its first
        # cell (thresholds at or below its low edge) and one past its
        # last (thresholds below its high edge, plus one).
        tree_col = np.arange(n_trees)[:, None]
        starts = np.repeat(first_cell, n_leaves)
        spans, open_ends = [], []
        for j in range(n_dims):
            lo = steps[j][
                np.searchsorted(edges[j], leaf_lo[:, :, j], side="right"),
                tree_col,
            ]
            hi = steps[j][
                np.searchsorted(edges[j], leaf_hi[:, :, j], side="left"),
                tree_col,
            ] + strides[:, j, None]
            starts += lo.ravel()
            spans.append((hi - lo).ravel())
            open_ends.append(
                (hi < (shapes[:, j] * strides[:, j])[:, None]).ravel()
            )
        # Inclusion–exclusion: each open dimension doubles a leaf's
        # corners, the far copy negated. ``owner`` is each corner's
        # global leaf, ``value`` its signed paint.
        n_corners = int(np.left_shift(1, np.sum(open_ends, axis=0)).sum())
        corner = np.empty(n_corners, dtype=np.int64)
        value = np.empty(n_corners, dtype=np.int32)
        owner = np.empty(n_corners, dtype=np.int64)
        filled = starts.size
        corner[:filled] = starts
        value[:filled] = owner[:filled] = np.arange(filled)
        for j in range(n_dims):
            far = np.flatnonzero(open_ends[j][owner[:filled]])
            stop = filled + far.size
            corner[filled:stop] = corner[far] + spans[j][owner[far]]
            value[filled:stop] = -value[far]
            owner[filled:stop] = owner[far]
            filled = stop
        # The adds wrap in the narrow dtype, but each cell's true sum is
        # its global leaf, which fits, so the wrapped sums are exact.
        dtype = np.min_scalar_type(n_trees * n_leaves - 1)
        paint = np.zeros(int(n_cells.sum()), dtype=dtype)
        np.add.at(paint, corner, value.astype(dtype))
        for t in range(n_trees):
            grid = paint[first_cell[t] : first_cell[t] + n_cells[t]].reshape(
                shapes[t]
            )
            for axis in np.flatnonzero(shapes[t] > 1):
                np.cumsum(grid, axis=axis, dtype=dtype, out=grid)
        steps[0] += first_cell.astype(np.int32)
        return cls(edges=tuple(edges), steps=tuple(steps), leaf_of_cell=paint)

    def route(self, points: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(begin, cells)`` per block: every tree's global cell.

        ``cells[i, t]`` is the cell of row ``begin + i`` in tree ``t``.
        Per dimension, one exact binary search counts the merged edges
        below each coordinate and one row gather adds every tree's
        stride-scaled cell index. NaN compares False against every
        threshold, so the descent sends it left: it goes to cell 0 here
        too, where the binary search alone would sort it last.
        ``cells`` is one buffer reused for every block: consume it
        before advancing.
        """
        shape = (_BLOCK_ROWS, self.steps[0].shape[1])
        cells = np.empty(shape, dtype=np.int32)
        part = np.empty(shape, dtype=np.int32)
        for begin in range(0, points.shape[0], _BLOCK_ROWS):
            block = points[begin : begin + _BLOCK_ROWS]
            rows = block.shape[0]
            for j, (edges, steps) in enumerate(zip(self.edges, self.steps)):
                col = block[:, j]
                index = np.searchsorted(edges, col, side="left")
                index[np.isnan(col)] = 0
                # Every index is in range; "clip" only spares the
                # buffered copy the default mode makes for ``out``.
                np.take(
                    steps, index, axis=0, out=(part if j else cells)[:rows],
                    mode="clip",
                )
                if j:
                    cells[:rows] += part[:rows]
            yield begin, cells[:rows]


def forest_leaf_counts(
    chunk: np.ndarray,
    features: np.ndarray,
    thresholds: np.ndarray,
    tables: OverlayTables | None = None,
) -> np.ndarray:
    """Integer leaf-occupancy counts of one chunk, shape ``(T, leaves)``.

    Rows route through the overlay ``tables`` when the forest has them
    and through the level-by-level descent otherwise; both give the
    same leaves, so the counts are identical either way.
    """
    n_trees = features.shape[0]
    n_leaves = features.shape[1] + 1
    if tables is None:
        leaves = tree_leaf_indices(chunk, features, thresholds)
        offsets = (np.arange(n_trees) * n_leaves)[:, None]
        flat = np.bincount(
            (offsets + leaves).ravel(), minlength=n_trees * n_leaves
        )
        return flat.reshape(n_trees, n_leaves)
    counts = np.zeros(n_trees * n_leaves, dtype=np.int64)
    for _begin, cells in tables.route(chunk):
        counts += np.bincount(
            np.take(tables.leaf_of_cell, cells).ravel(),
            minlength=counts.size,
        )
    return counts.reshape(n_trees, n_leaves)


class TreeDensityEstimator(DensityEstimator):
    """Forest of random axis-aligned partitions routed by lookup tables.

    Dataset passes: 2 — one scan finds the bounding box, one counts
    leaf occupancies (the box scan still runs when ``bounds`` is given;
    see Notes for the single-pass escape hatch).

    Memory: O(m) — the forest structure, its leaf-count table
    (``n_trees * 2^max_depth`` cells) and its overlay routing tables
    (per tree at most ``_EVAL_CELL_CAP`` cells and as many merged-grid
    rows); chunks are routed and discarded as the scan advances.

    Parameters
    ----------
    n_trees:
        Number of independent random partition trees averaged into the
        estimate. More trees smooth the piecewise-constant surface.
    max_depth:
        Levels of splits per tree; each tree has ``2^max_depth`` leaves.
        Depth trades bias (shallow = blurry) against variance (deep =
        sparse leaves).
    bounds:
        Optional ``(mins, maxs)`` bounding box; when given, fitting
        skips the box-finding pass (see Notes).
    random_state:
        Seed for the generator that draws split attributes and split
        fractions. Trees are drawn once, on the coordinator, so fitted
        state is byte-identical for any ``n_jobs`` / shard count.

    Notes
    -----
    Fitting takes *two* passes when the bounding box is unknown (one to
    find the box, one to count); pass ``bounds=(mins, maxs)`` to fit in
    a single pass like the paper's kernel estimator. Both scans run
    over the ambient shard count (one by default), and their partials
    merge exactly: elementwise min/max for the box, integer leaf-count
    addition for the occupancies.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(5000, 2))
    >>> est = TreeDensityEstimator(random_state=0).fit(data)
    >>> float(est.evaluate([[0.0, 0.0]])[0]) > float(est.evaluate([[4.0, 4.0]])[0])
    True
    """

    __n_passes__ = 2

    #: Peak working-memory bound of fit()/evaluate() (audited by RA005).
    __space__ = "O(m)"

    def __init__(
        self,
        n_trees: int = 64,
        max_depth: int = 8,
        bounds=None,
        random_state=None,
    ) -> None:
        if n_trees < 1:
            raise ParameterError(f"n_trees must be >= 1; got {n_trees}.")
        if max_depth < 1:
            raise ParameterError(f"max_depth must be >= 1; got {max_depth}.")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.bounds = bounds
        self.random_state = random_state
        # Fitted state
        self.features_: np.ndarray | None = None
        self.thresholds_: np.ndarray | None = None
        self.leaf_volumes_: np.ndarray | None = None
        self.counts_: np.ndarray | None = None
        self.rate_: np.ndarray | None = None
        self.mins_: np.ndarray | None = None
        self.maxs_: np.ndarray | None = None
        self.n_points_: int | None = None
        self.n_dims_: int | None = None
        # Routing tables, built with the forest (None above the cell
        # cap), and the per-cell rates evaluation gathers from.
        self._tables: OverlayTables | None = None
        self._cell_rates: np.ndarray | None = None

    @property
    def n_leaves_(self) -> int:
        """Leaves per tree (``2^max_depth``)."""
        return 1 << self.max_depth

    # -- fitting ---------------------------------------------------------------

    def fit(self, data=None, *, stream: DataStream | None = None):
        """Fit in two scans: bounding box, then integer leaf counts.

        Both scans are :class:`~repro.sharding.ShardPlan` scans over
        the ambient shard count (``repro run --shards`` /
        ``REPRO_SHARDS`` / :func:`repro.sharding.use_shards`, default
        ``1``). Their partials merge exactly — elementwise min/max for
        the box, integer addition for the counts — so the fit is
        byte-identical for any shard count (DESIGN.md §14). Tree
        structure and its :class:`OverlayTables` are built once, on the
        coordinator, between the two scans; the counting scan routes
        every row through those tables (the descent only above
        ``_EVAL_CELL_CAP``), so neither fit nor evaluation walks the
        trees. At ``S = 1`` both scans run inline on the caller; the
        ambient ``n_jobs`` only sizes the shard fan-out when ``S > 1``.
        """
        source = self._as_stream(data, stream)
        plan = ShardPlan(source, resolve_shards(None))
        if self.bounds is not None:
            mins, maxs = self._explicit_bounds()
        else:
            box = bounds_shards(plan)
            if box.seen == 0:
                raise ParameterError(
                    "cannot fit a density estimator on no data."
                )
            mins, maxs = box.mins, box.maxs
        self._build_trees(mins, maxs)
        state = tree_count_shards(
            plan, self.features_, self.thresholds_, self._tables
        )
        if state.seen == 0:
            raise ParameterError("cannot fit a density estimator on no data.")
        self._finalize(state.counts, state.seen)
        return self

    def _explicit_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        mins = np.atleast_1d(np.asarray(self.bounds[0], dtype=np.float64))
        maxs = np.atleast_1d(np.asarray(self.bounds[1], dtype=np.float64))
        for name, values in (("mins", mins), ("maxs", maxs)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ParameterError(
                    f"bounds {name}[{bad[0]}] is {values[bad[0]]}; every "
                    "bound must be finite."
                )
        if mins.shape != maxs.shape or (maxs < mins).any():
            raise ParameterError(
                "bounds must be (mins, maxs) arrays of equal shape with "
                "maxs >= mins."
            )
        return mins, maxs

    def _build_trees(self, mins: np.ndarray, maxs: np.ndarray) -> None:
        """Draw the forest structure for the box ``[mins, maxs]``.

        All randomness happens here, on the coordinator, from the
        seeded generator: one attribute draw and one split-fraction
        draw per internal node, level by level across every tree at
        once. Degenerate (constant) attributes are padded to unit width
        so leaf volumes stay positive, mirroring the grid estimator's
        scaler convention. The forest's :class:`OverlayTables` are
        built here too, from the leaf boxes, so the counting scan can
        route through them.
        """
        mins = np.asarray(mins, dtype=np.float64)
        maxs = np.asarray(maxs, dtype=np.float64)
        degenerate = (maxs - mins) <= np.finfo(np.float64).tiny
        mins = np.where(degenerate, mins - 0.5, mins)
        maxs = np.where(degenerate, maxs + 0.5, maxs)
        rng = check_random_state(self.random_state)
        n_dims = mins.shape[0]
        n_leaves = 1 << self.max_depth
        n_internal = n_leaves - 1
        features = np.zeros((self.n_trees, n_internal), dtype=np.int64)
        thresholds = np.zeros((self.n_trees, n_internal), dtype=np.float64)
        lo = np.broadcast_to(mins, (self.n_trees, 1, n_dims)).copy()
        hi = np.broadcast_to(maxs, (self.n_trees, 1, n_dims)).copy()
        for level in range(self.max_depth):
            width = 1 << level
            start = width - 1
            feat = rng.integers(0, n_dims, size=(self.n_trees, width))
            frac = rng.uniform(
                _SPLIT_LO, 1.0 - _SPLIT_LO, size=(self.n_trees, width)
            )
            lo_f = np.take_along_axis(lo, feat[:, :, None], axis=2)[:, :, 0]
            hi_f = np.take_along_axis(hi, feat[:, :, None], axis=2)[:, :, 0]
            thr = lo_f + frac * (hi_f - lo_f)
            features[:, start : start + width] = feat
            thresholds[:, start : start + width] = thr
            # Children boxes in heap order: node (level, i) has children
            # (level+1, 2i) and (level+1, 2i+1).
            lo = np.repeat(lo, 2, axis=1)
            hi = np.repeat(hi, 2, axis=1)
            tree_ids = np.arange(self.n_trees)[:, None]
            child = 2 * np.arange(width)[None, :]
            hi[tree_ids, child, feat] = thr
            lo[tree_ids, child + 1, feat] = thr
        self.features_ = features
        self.thresholds_ = thresholds
        self.leaf_volumes_ = np.prod(hi - lo, axis=2)
        self.mins_ = mins
        self.maxs_ = maxs
        self.n_dims_ = int(n_dims)
        self._tables = OverlayTables.build(features, thresholds, lo, hi)
        get_recorder().count("tree_nodes_built", self.n_trees * n_internal)

    def _finalize(self, counts: np.ndarray, n: int) -> None:
        """Freeze fitted state: counts plus the precomputed density table.

        ``rate_[t, leaf] = counts[t, leaf] / volume[t, leaf]`` makes one
        evaluation a gather plus a mean over trees; each tree's rates
        integrate to ``n`` over the box, so the average does too —
        densities integrate to ``n``, the paper's normalisation.
        """
        self.counts_ = np.asarray(counts, dtype=np.int64)
        self.n_points_ = int(n)
        self.rate_ = self.counts_ / self.leaf_volumes_
        self._build_eval_tables()

    def _build_eval_tables(self) -> None:
        """Map every overlay cell to its leaf's rate, one flat gather.

        The structure tables (:class:`OverlayTables`) were built with
        the forest; all evaluation adds is ``cell_rates =
        rate_.ravel()[leaf_of_cell]``, so a query's density is its
        routed cells' rates averaged over trees. Forests above
        ``_EVAL_CELL_CAP`` have no tables and evaluate by descent.
        """
        self._cell_rates = (
            None
            if self._tables is None
            else self.rate_.ravel()[self._tables.leaf_of_cell]
        )

    # -- evaluation --------------------------------------------------------------

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        recorder = get_recorder()
        rows = int(points.shape[0])
        # One lookup = one query row routed through one tree.
        recorder.count("tree_lookups", rows * self.n_trees)
        with recorder.phase("tree_eval_block") as span:
            span.set(
                rows=rows,
                trees=self.n_trees,
                depth=self.max_depth,
                route="descent" if self._tables is None else "table",
            )
            if self._tables is not None:
                return self._evaluate_cells(points)
            out = np.empty(rows, dtype=np.float64)
            tree_ids = np.arange(self.n_trees)[:, None]
            for begin in range(0, rows, _BLOCK_ROWS):
                leaves = tree_leaf_indices(
                    points[begin : begin + _BLOCK_ROWS],
                    self.features_,
                    self.thresholds_,
                )
                out[begin : begin + leaves.shape[1]] = self.rate_[
                    tree_ids, leaves
                ].mean(axis=0)
            return out

    def _evaluate_cells(self, points: np.ndarray) -> np.ndarray:
        """Evaluate through the overlay tables (see OverlayTables.route).

        Each block's routed cells gather their rates tree-major, so the
        sum over trees runs in tree order — the descent's ``mean``
        order — and is divided once.
        """
        out = np.empty(points.shape[0], dtype=np.float64)
        rates = np.empty(_BLOCK_ROWS * self.n_trees, dtype=np.float64)
        for begin, cells in self._tables.route(points):
            rows = cells.shape[0]
            block = rates[: rows * self.n_trees].reshape(self.n_trees, rows)
            np.take(self._cell_rates, cells.T, out=block, mode="clip")
            np.add.reduce(block, axis=0, out=out[begin : begin + rows])
        out /= self.n_trees
        return out
