"""Geometric helpers: distances, ball volumes and grid-cell tiling.

The outlier detector integrates density over Euclidean balls, and every
clusterer measures squared Euclidean distances; both live here so the
formulas are tested once. There is one distance kernel: squared
coordinate differences summed one coordinate at a time. All-pairs
matrices come from :func:`pair_sq_distances`. :func:`nearest` runs the
kernel on row tiles of ``max(256, 32768 // targets)`` rows.
:func:`count_within` sorts the rows into grid cells one radius wide
(:func:`cell_order`), tiles whole cells (:func:`cell_tiles`) and
computes, per tile, only the centres its bounding box can reach; the
skipped pairs provably lie beyond the radius, so the counts equal the
full scan's. The KDE tiles its rows with the same two helpers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs import get_recorder

#: A tile of :func:`nearest` and :func:`count_within` has at least
#: ``_TILE_ROWS`` rows, or enough for ``_TILE_CELLS`` distances (256 kB,
#: cache-resident) when there are few targets; a cell tile of
#: :func:`count_within` has at most that many.
_TILE_ROWS = 256
_TILE_CELLS = 32_768

__all__ = [
    "ball_volume",
    "cell_order",
    "cell_tiles",
    "count_within",
    "nearest",
    "pair_sq_distances",
]


def ball_volume(radius: float, n_dims: int) -> float:
    """Volume of a Euclidean ball of ``radius`` in ``n_dims`` dimensions.

    Uses the closed form ``pi^(d/2) / Gamma(d/2 + 1) * r^d``; a volume
    beyond the float range is ``inf``.

    >>> round(ball_volume(1.0, 2), 6)  # unit disk
    3.141593
    """
    if n_dims < 1:
        raise ValueError(f"n_dims must be >= 1; got {n_dims}.")
    if radius < 0:
        raise ValueError(f"radius must be >= 0; got {radius}.")
    unit = math.pi ** (n_dims / 2.0) / math.gamma(n_dims / 2.0 + 1.0)
    try:
        return unit * radius**n_dims
    except OverflowError:
        # A finite radius whose power leaves the float range has an
        # infinite volume, as an infinite radius does.
        return math.inf


def pair_sq_distances(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared distances from ``points`` to ``targets``, one pair at a time.

    Returns shape ``(len(points), len(targets))``. Sums ``(p_j - t_j)^2``
    one coordinate at a time, from coordinate 0 upwards. Every entry is
    the same sequence of rounded operations on its own two rows, so it
    does not depend on the shape of the call, swapping the arguments
    gives the transpose bit for bit, duplicate rows give exactly 0, and
    points far from the origin do not cancel. Raises ``ValueError``
    naming both shapes unless both arrays are 2-D with equal widths.
    """
    _check_columns(points, targets)
    out = np.empty((points.shape[0], targets.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        return _sq_distances_into(points, targets, out, np.empty_like(out))


def nearest(
    points: np.ndarray, anchors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest anchor of every point, by exact squared distance.

    ``points`` (shape ``(n, d)``) is scanned in row tiles, so the
    working memory is ``O(max(256 * k, 32768))`` for ``k >= 1`` anchors
    whatever ``n`` is, and splitting ``points`` across calls gives the
    same output. Raises ``ValueError`` as :func:`pair_sq_distances` does.

    Returns
    -------
    index:
        Int64 array of shape ``(n,)``: the row of ``anchors`` closest to
        each point. Ties go to the lowest anchor index.
    sq_dist:
        Float64 array of shape ``(n,)``: the squared distance to that
        anchor, as :func:`pair_sq_distances` computes it.

    >>> nearest(np.array([[0.0], [4.0], [2.5]]), np.array([[1.0], [3.0]]))
    (array([0, 1, 1]), array([1.  , 1.  , 0.25]))
    """
    _check_columns(points, anchors)
    index = np.empty(points.shape[0], dtype=np.int64)
    sq_dist = np.empty(points.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, dists in _tiles(points, anchors):
            best = dists.argmin(axis=1)
            rows = best.shape[0]
            index[lo : lo + rows] = best
            sq_dist[lo : lo + rows] = dists[np.arange(rows), best]
    return index, sq_dist


def count_within(
    centres: np.ndarray, points: np.ndarray, radius_sq: float
) -> np.ndarray:
    """How many of ``points`` lie within the radius of each centre.

    The distances are exact per-coordinate sums, so a count does not
    depend on how far the data sit from the origin, and splitting
    ``points`` into blocks gives the same total. Raises ``ValueError``
    as :func:`pair_sq_distances` does.

    ``points`` is sorted into grid cells of side ``sqrt(radius_sq)``
    and tiled along whole cells, up to ``max(256, 32768 // c)`` rows a
    tile. A centre ``y`` is skipped for a tile with bounding box
    ``[lo, hi]`` when, in some coordinate ``j``, the gap
    ``g = max(fl(lo_j - y_j), fl(y_j - hi_j))`` is positive and
    ``fl(g * g) > radius_sq``. Rounding is monotone, so every row of the
    tile has ``fl((x_j - y_j)^2) >= fl(g * g)``, and a rounded sum of
    non-negative terms is at least each of them: the skipped pair's
    distance exceeds the radius and would not have counted. NaN rows
    never count: ``fmin``/``fmax`` leave them out of the box and their
    distances fail ``<=``. The plain tile loop runs instead when the
    radius is zero or not finite, or when ``points`` fits one tile.
    Each computed pair adds one to the ``distance_evals`` counter.

    Working memory is ``O(max(256 * c, 32768))`` for the tile buffers
    plus ``O(n)`` for the cell order of the ``n`` points.

    Parameters
    ----------
    centres:
        Array of shape ``(c, d)``.
    points:
        Array of shape ``(n, d)``.
    radius_sq:
        Squared radius; a point at exactly this squared distance counts.

    Returns
    -------
    numpy.ndarray
        Int64 counts of shape ``(c,)``.

    >>> count_within(np.array([[0.0], [5.0]]), np.array([[1.0], [2.0]]), 1.0)
    array([1, 0])
    """
    _check_columns(centres, points)
    # Infinite or huge coordinates give inf - inf or an overflowing
    # square; the IEEE result (NaN or inf) is the answer, so the
    # warnings are noise. One errstate covers every tile of the call.
    with np.errstate(over="ignore", invalid="ignore"):
        return _count_within(centres, points, radius_sq)


def _count_within(
    centres: np.ndarray, points: np.ndarray, radius_sq: float
) -> np.ndarray:
    n, c = points.shape[0], centres.shape[0]
    counts = np.zeros(c, dtype=np.int64)
    tile = _tile_rows(c)
    if n <= tile or c == 0 or not 0.0 < radius_sq < math.inf:
        for _, dists in _tiles(points, centres):
            counts += (dists <= radius_sq).sum(axis=0)
        get_recorder().count("distance_evals", n * c)
        return counts
    order, starts = cell_order(points, math.sqrt(radius_sq))
    rows = points[order]
    # A cell larger than a tile runs in tile-sized pieces, each with
    # its own (tighter) box.
    tiles = [
        (a, min(t1, a + tile))
        for t0, t1 in cell_tiles(starts, n, tile)
        for a in range(t0, t1, tile)
    ]
    heads = [t0 for t0, _ in tiles]
    lo = np.fmin.reduceat(rows, heads, axis=0)
    hi = np.fmax.reduceat(rows, heads, axis=0)
    # Attribute-major centres: gathering the kept ones copies d short
    # rows, and their transpose is the column-major target block the
    # kernel reads.
    columns = np.ascontiguousarray(centres.T, dtype=np.float64)
    dists = np.empty(tile * c)
    buf = np.empty_like(dists)
    # One far test per ``group`` tiles, its (tiles, c) scratch in the
    # distance buffers (``group <= tile``), which the test frees before
    # the tiles use them.
    group = max(1, _TILE_CELLS // c)
    computed = 0
    for g0 in range(0, len(tiles), group):
        g1 = min(len(tiles), g0 + group)
        masks = _far_from_boxes(
            lo[g0:g1], hi[g0:g1], columns, radius_sq, dists, buf
        )
        for (t0, t1), mask in zip(tiles[g0:g1], masks):
            kept = np.flatnonzero(~mask)
            if kept.size == 0:
                continue
            r, k = t1 - t0, kept.size
            out = _sq_distances_into(
                rows[t0:t1],
                columns[:, kept].T,
                dists[: r * k].reshape(r, k),
                buf[: r * k].reshape(r, k),
            )
            counts[kept] += (out <= radius_sq).sum(axis=0)
            computed += r * k
    get_recorder().count("distance_evals", computed)
    return counts


def cell_order(
    points: np.ndarray, side: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row order that groups ``points`` by grid cell, and the cell starts.

    A row's cell is ``floor(points / side)`` (``side`` a scalar or one
    width per column); rows are sorted by cell with ``np.lexsort``, last
    column first. The cell only steers tiling, so overflow to an
    infinite key is harmless, and a NaN key differs from everything:
    such a row is its own cell.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    side:
        Cell width, positive.

    Returns
    -------
    order:
        Row permutation of shape ``(n,)`` that puts ``points`` in cell
        order.
    starts:
        Ascending positions in that order where a new cell begins
        (position 0 left out).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.floor(points / side)
    order = np.lexsort(cells.T)
    cells = cells[order]
    starts = np.flatnonzero(np.any(cells[1:] != cells[:-1], axis=1)) + 1
    return order, starts


def cell_tiles(
    cell_starts: np.ndarray | None, rows: int, tile_rows: int
) -> list[tuple[int, int]]:
    """Row tiles of a block in cell order, as ``(start, stop)`` pairs.

    A tile is a run of whole cells. A cell of at least ``tile_rows``
    rows is a tile of its own; consecutive smaller cells merge while
    the tile stays within ``tile_rows`` rows.

    Parameters
    ----------
    cell_starts:
        The rows where a new cell begins (see :func:`cell_order`);
        ``None`` makes every row its own cell, which gives plain
        ``tile_rows``-row tiles.
    rows:
        Number of rows in the block.
    tile_rows:
        Row budget of a tile of several cells.

    Returns
    -------
    list of tuple of int
        The tiles, in order, covering ``range(rows)``.
    """
    if cell_starts is None:
        return [(t, min(rows, t + tile_rows)) for t in range(0, rows, tile_rows)]
    tiles = []
    start = 0
    bounds = [0, *cell_starts.tolist(), rows]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - start > tile_rows and lo > start:
            # The cell would overfill the open tile: close it first.
            tiles.append((start, lo))
            start = lo
        if hi - start >= tile_rows:
            tiles.append((start, hi))
            start = hi
    if start < rows:
        tiles.append((start, rows))
    return tiles


def _check_columns(points: np.ndarray, targets: np.ndarray) -> None:
    if points.ndim != 2 or targets.ndim != 2 or points.shape[1] != targets.shape[1]:
        raise ValueError(
            "expected two 2-D arrays with the same number of columns; "
            f"got shapes {points.shape} and {targets.shape}."
        )


def _tile_rows(targets: int) -> int:
    """Rows of a scan tile against ``targets`` targets."""
    return max(_TILE_ROWS, _TILE_CELLS // max(1, targets))


def _far_from_boxes(
    lo: np.ndarray,
    hi: np.ndarray,
    columns: np.ndarray,
    radius_sq: float,
    gap: np.ndarray,
    far: np.ndarray,
) -> np.ndarray:
    """Which centres lie beyond the radius of every row of each box.

    Box ``i`` is ``[lo[i], hi[i]]``; ``columns`` holds the centres
    attribute-major, shape ``(d, c)``. Returns a ``(boxes, c)`` mask,
    true where the largest one-sided gap ``max(lo_j - y_j, y_j - hi_j)``
    to a centre ``y`` over the coordinates is positive and squares to more than
    ``radius_sq`` (see :func:`count_within`). ``fmax`` skips a NaN gap,
    which only keeps more pairs. ``gap`` and ``far`` are float64
    scratch of at least ``boxes * c`` elements.
    """
    shape = (lo.shape[0], columns.shape[1])
    gap = gap[: shape[0] * shape[1]].reshape(shape)
    far = far[: gap.size].reshape(shape)
    far.fill(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, column in enumerate(columns):
            np.subtract(lo[:, j, None], column, out=gap)
            np.fmax(far, gap, out=far)
            np.subtract(column, hi[:, j, None], out=gap)
            np.fmax(far, gap, out=far)
        np.multiply(far, far, out=far)
    return far > radius_sq


def _tiles(points: np.ndarray, targets: np.ndarray):
    """Yield ``(lo, dists)`` for each row tile of ``points``.

    ``dists`` holds the tile's squared distances to every target. It is
    a view of a buffer reused by the next tile, so read it before
    advancing.
    """
    # Column-major, so each coordinate's target values are contiguous.
    targets = np.asfortranarray(targets, dtype=np.float64)
    tile = max(1, min(_tile_rows(targets.shape[0]), points.shape[0]))
    dists = np.empty((tile, targets.shape[0]))
    buf = np.empty_like(dists)
    for lo in range(0, points.shape[0], tile):
        block = points[lo : lo + tile]
        rows = block.shape[0]
        yield lo, _sq_distances_into(block, targets, dists[:rows], buf[:rows])


def _sq_distances_into(
    points: np.ndarray, targets: np.ndarray, out: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with ``sum_j (p_j - t_j)^2``, using ``buf`` as scratch.

    Both are float64 ``(len(points), len(targets))``; the sum runs from
    coordinate 0 upwards.
    """
    np.subtract(points[:, 0, None], targets[None, :, 0], out=out)
    np.multiply(out, out, out=out)
    for j in range(1, points.shape[1]):
        np.subtract(points[:, j, None], targets[None, :, j], out=buf)
        np.multiply(buf, buf, out=buf)
        out += buf
    return out
