"""Random-partition forest density estimator (tree backend).

The KDE hot path costs ``points x centers`` kernel evaluations per
query chunk. Following Wells & Ting ("A simple efficient density
estimator that enables fast systematic search"), this module trades the
kernel sum for ``T`` random axis-aligned partition trees built over the
data bounding box: each tree splits every box at a uniformly drawn
fraction of a uniformly drawn attribute, down to a fixed depth, and the
density at ``x`` is the average over trees of ``count(leaf(x)) /
volume(leaf(x))``. A lookup costs ``T x d`` table gathers (``T x
depth`` comparisons on the descent fallback) instead of O(m·d) kernel
products — and the estimate still integrates to ``n`` over the domain,
which is the normalisation the paper's biased-sampling algebra needs
(section 2.1).

Tree *structure* is drawn once, on the coordinator, from the seeded
generator, together with the O(1) overlay tables that route a row to
its leaf in every tree without walking the trees
(:class:`OverlayTables`). Both the counting scan and evaluation route
through those tables; the level-by-level :func:`tree_leaf_indices`
descent is only the fallback for forests too fine to tabulate
(``_EVAL_CELL_CAP``). The counting scan is pure integer accumulation.
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

#: Query rows routed per evaluation block: keeps the per-row routing
#: temporaries inside the cache while leaving the per-row results —
#: each row's route is independent — byte-identical for any blocking.
_EVAL_BLOCK_ROWS = 8192

#: Uniform quantization bins per dimension for the O(1) lookup tables
#: built with the forest. Bin assignment is monotone in the coordinate,
#: so the table lookup resolves to the exact descent leaf for any bin
#: count; finer bins only shrink the (exactly handled) fraction of
#: queries that fall into a bin holding two or more thresholds.
_EVAL_BINS = 4096

#: Ceiling on overlay cells per tree (product over dimensions of
#: thresholds + 1). Above it — high-dimensional forests where the
#: per-dim threshold grid's cross product explodes — both the counting
#: scan and evaluation fall back to the level-by-level descent.
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


def _bin_of(values: np.ndarray, lo: float, scale: float) -> np.ndarray:
    """Uniform bin of each value along one dimension (monotone, clamped).

    The same expression quantizes thresholds at build time and queries
    at lookup time; sharing it is what makes the table route exact for
    any rounding behaviour.
    """
    offsets = (values - lo) * scale
    return np.clip(offsets, 0.0, _EVAL_BINS - 1.0).astype(np.int64)


@dataclass(frozen=True)
class OverlayTables:
    """Structure-only O(1) routing tables of one forest.

    Each tree's leaves induce, per dimension, a sorted grid of the
    thresholds splitting that dimension; the leaf of a row is fully
    determined by its per-dim cell index ``#{grid < x}``. These tables
    make that index a constant-time gather and map the resulting cell
    to its leaf. They depend only on the forest structure, so they are
    built with the trees and shipped, as plain arrays, to the counting
    scan's shard workers.

    Parameters
    ----------
    mins:
        Lower corner of the fitted box, shape ``(d,)``.
    scale:
        Bins per unit length per dimension, shape ``(d,)``.
    base:
        ``base[t, j, u]`` = thresholds of tree ``t`` on dimension ``j``
        in bins before ``u``; shape ``(T, d, _EVAL_BINS)``.
    cut:
        The single threshold inside each bin (``+inf`` when the bin
        holds none or several).
    amb:
        Whether each bin holds two or more thresholds (resolved by
        exact binary search over ``grids``).
    amb_any:
        ``amb.any(axis=2)``: trees/dimensions with any ambiguous bin.
    grids:
        Per tree, per dimension, the sorted unique thresholds.
    shapes:
        Per tree, the cell-grid shape (thresholds + 1 per dimension).
    leaf_of_cell:
        Per tree, the leaf index of every flat cell.
    """

    mins: np.ndarray
    scale: np.ndarray
    base: np.ndarray
    cut: np.ndarray
    amb: np.ndarray
    amb_any: np.ndarray
    grids: tuple
    shapes: tuple
    leaf_of_cell: tuple

    @classmethod
    def build(cls, features, thresholds, leaf_lo, leaf_hi, mins, maxs):
        """Tabulate a forest, or return ``None`` above the cell cap.

        ``leaf_lo`` / ``leaf_hi`` are the leaf bounding boxes, shape
        ``(T, n_leaves, d)``; each leaf's box is sliced into the
        per-dim threshold grid to fill ``leaf_of_cell``. Bin assignment
        is monotone in the coordinate, so ``base[u] + (cut[u] < x)``
        equals ``#{grid < x}`` exactly — the table route is
        bit-identical to the descent.
        """
        n_trees, n_leaves, n_dims = leaf_lo.shape
        grids = tuple(
            tuple(
                np.unique(thresholds[t][features[t] == j])
                for j in range(n_dims)
            )
            for t in range(n_trees)
        )
        shapes = tuple(
            tuple(grid.size + 1 for grid in per_dim) for per_dim in grids
        )
        if max(int(np.prod(s)) for s in shapes) > _EVAL_CELL_CAP:
            return None
        scale = _EVAL_BINS / (maxs - mins)
        base = np.zeros((n_trees, n_dims, _EVAL_BINS), dtype=np.int64)
        cut = np.full((n_trees, n_dims, _EVAL_BINS), np.inf)
        amb = np.zeros((n_trees, n_dims, _EVAL_BINS), dtype=bool)
        leaf_dtype = np.min_scalar_type(n_leaves - 1)
        leaf_of_cell = []
        for t in range(n_trees):
            for j in range(n_dims):
                grid = grids[t][j]
                if grid.size == 0:
                    continue
                bins = _bin_of(grid, mins[j], scale[j])
                counts = np.bincount(bins, minlength=_EVAL_BINS)
                base[t, j, 1:] = np.cumsum(counts)[:-1]
                cut[t, j, bins] = grid
                amb[t, j] = counts >= 2
                cut[t, j, amb[t, j]] = np.inf
            table = np.empty(shapes[t], dtype=leaf_dtype)
            starts = [
                np.searchsorted(grids[t][j], leaf_lo[t][:, j], side="right")
                for j in range(n_dims)
            ]
            ends = [
                np.searchsorted(grids[t][j], leaf_hi[t][:, j], side="left")
                + 1
                for j in range(n_dims)
            ]
            for leaf in range(n_leaves):
                window = tuple(
                    slice(starts[j][leaf], ends[j][leaf])
                    for j in range(n_dims)
                )
                table[window] = leaf
            leaf_of_cell.append(table.ravel())
        return cls(
            mins=mins,
            scale=scale,
            base=base,
            cut=cut,
            amb=amb,
            amb_any=amb.any(axis=2),
            grids=grids,
            shapes=shapes,
            leaf_of_cell=tuple(leaf_of_cell),
        )

    def route(self, block: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(t, cells)`` per tree: each row's flat cell index.

        Per tree and dimension the cell index is one gather plus one
        comparison; rows landing in a bin that holds several thresholds
        — a handful per block — are re-resolved by exact binary search
        over that tree's per-dim threshold grid, so the routed cell
        always contains the descent leaf. ``cells`` is one buffer
        reused for every tree: consume it before advancing.
        """
        rows = block.shape[0]
        n_dims = self.mins.shape[0]
        cols = [
            np.ascontiguousarray(block[:, j], dtype=np.float64)
            for j in range(n_dims)
        ]
        bins = [
            _bin_of(cols[j], self.mins[j], self.scale[j])
            for j in range(n_dims)
        ]
        idx = np.empty(rows, dtype=np.int64)
        part = np.empty(rows, dtype=np.int64)
        cutg = np.empty(rows, dtype=np.float64)
        right = np.empty(rows, dtype=bool)
        for t, shape in enumerate(self.shapes):
            for j in range(n_dims):
                target = part if j else idx
                np.take(self.base[t, j], bins[j], out=target)
                np.take(self.cut[t, j], bins[j], out=cutg)
                np.less(cutg, cols[j], out=right)
                target += right
                if self.amb_any[t, j]:
                    pos = np.flatnonzero(self.amb[t, j][bins[j]])
                    if pos.size:
                        target[pos] = np.searchsorted(
                            self.grids[t][j], cols[j][pos], side="left"
                        )
                if j:
                    idx *= shape[j]
                    idx += part
            yield t, idx


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
    counts = np.empty((n_trees, n_leaves), dtype=np.int64)
    for t, cells in tables.route(chunk):
        counts[t] = np.bincount(
            tables.leaf_of_cell[t][cells], minlength=n_leaves
        )
    return counts


class TreeDensityEstimator(DensityEstimator):
    """Forest of random axis-aligned partitions with O(1) table lookups.

    Dataset passes: 2 — one scan finds the bounding box, one counts
    leaf occupancies (the box scan still runs when ``bounds`` is given;
    see Notes for the single-pass escape hatch).

    Memory: O(m) — the forest structure, its leaf-count table
    (``n_trees * 2^max_depth`` cells) and its overlay routing tables
    (at most ``_EVAL_CELL_CAP`` cells per tree); chunks are routed and
    discarded as the scan advances.

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
        # O(1) routing tables, built with the forest (None above the
        # cell cap), and the per-cell rates evaluation gathers from.
        self._tables: OverlayTables | None = None
        self._cells: list | None = None

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
        self._tables = OverlayTables.build(
            features, thresholds, lo, hi, mins, maxs
        )
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
        """Map every overlay cell to its leaf's rate, one gather per tree.

        The structure tables (:class:`OverlayTables`) were built with
        the forest; all evaluation adds is ``cells[t] =
        rate_[t][leaf_of_cell[t]]``, so a query's density is its routed
        cell's rate averaged over trees. Forests above
        ``_EVAL_CELL_CAP`` have no tables and evaluate by descent.
        """
        if self._tables is None:
            self._cells = None
            return
        self._cells = [
            self.rate_[t][leaf_of_cell]
            for t, leaf_of_cell in enumerate(self._tables.leaf_of_cell)
        ]

    # -- evaluation --------------------------------------------------------------

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        recorder = get_recorder()
        rows = int(points.shape[0])
        # One lookup = one query row routed through one tree.
        recorder.count("tree_lookups", rows * self.n_trees)
        out = np.empty(rows, dtype=np.float64)
        tree_ids = np.arange(self.n_trees)[:, None]
        with recorder.phase("tree_eval_block") as span:
            span.set(rows=rows, trees=self.n_trees, depth=self.max_depth)
            for begin in range(0, rows, _EVAL_BLOCK_ROWS):
                block = points[begin : begin + _EVAL_BLOCK_ROWS]
                if self._tables is not None:
                    out[begin : begin + block.shape[0]] = (
                        self._evaluate_cells(block)
                    )
                else:
                    leaves = tree_leaf_indices(
                        block, self.features_, self.thresholds_
                    )
                    out[begin : begin + block.shape[0]] = self.rate_[
                        tree_ids, leaves
                    ].mean(axis=0)
        return out

    def _evaluate_cells(self, block: np.ndarray) -> np.ndarray:
        """One block through the overlay tables (see OverlayTables.route).

        Each tree's routed cell indexes that tree's per-cell rates; the
        rates are summed over trees in tree order and divided once.
        """
        acc = np.zeros(block.shape[0])
        gathered = np.empty(block.shape[0], dtype=np.float64)
        for t, cells in self._tables.route(block):
            np.take(self._cells[t], cells, out=gathered)
            acc += gathered
        acc /= self.n_trees
        return acc
