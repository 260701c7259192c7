"""Geometric helpers: distances and ball volumes.

The outlier detector integrates density over Euclidean balls, and every
clusterer measures squared Euclidean distances; both live here so the
formulas are tested once. There is one distance kernel: squared
coordinate differences summed one coordinate at a time. All-pairs
matrices come from :func:`pair_sq_distances`; scans of many rows against
a few anchors or centres (:func:`nearest`, :func:`count_within`) run it
on row tiles of ``max(256, 32768 // targets)`` rows.
"""

from __future__ import annotations

import math

import numpy as np

#: A tile of :func:`nearest` and :func:`count_within` has at least
#: ``_TILE_ROWS`` rows, or enough for ``_TILE_CELLS`` distances (256 kB,
#: cache-resident) when there are few targets.
_TILE_ROWS = 256
_TILE_CELLS = 32_768

__all__ = [
    "ball_volume",
    "count_within",
    "nearest",
    "pair_sq_distances",
]


def ball_volume(radius: float, n_dims: int) -> float:
    """Volume of a Euclidean ball of ``radius`` in ``n_dims`` dimensions.

    Uses the closed form ``pi^(d/2) / Gamma(d/2 + 1) * r^d``.

    >>> round(ball_volume(1.0, 2), 6)  # unit disk
    3.141593
    """
    if n_dims < 1:
        raise ValueError(f"n_dims must be >= 1; got {n_dims}.")
    if radius < 0:
        raise ValueError(f"radius must be >= 0; got {radius}.")
    unit = math.pi ** (n_dims / 2.0) / math.gamma(n_dims / 2.0 + 1.0)
    return unit * radius**n_dims


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

    ``points`` is scanned in row tiles, so the working memory is
    ``O(max(256 * len(centres), 32768))`` whatever the number of
    points. The distances are exact per-coordinate sums, so a count does
    not depend on how far the data sit from the origin, and splitting
    ``points`` into blocks gives the same total. Raises ``ValueError``
    as :func:`pair_sq_distances` does.

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
    counts = np.zeros(centres.shape[0], dtype=np.int64)
    for _, dists in _tiles(points, centres):
        counts += (dists <= radius_sq).sum(axis=0)
    return counts


def _check_columns(points: np.ndarray, targets: np.ndarray) -> None:
    if points.ndim != 2 or targets.ndim != 2 or points.shape[1] != targets.shape[1]:
        raise ValueError(
            "expected two 2-D arrays with the same number of columns; "
            f"got shapes {points.shape} and {targets.shape}."
        )


def _tiles(points: np.ndarray, targets: np.ndarray):
    """Yield ``(lo, dists)`` for each row tile of ``points``.

    ``dists`` holds the tile's squared distances to every target. It is
    a view of a buffer reused by the next tile, so read it before
    advancing.
    """
    # Column-major, so each coordinate's target values are contiguous.
    targets = np.asfortranarray(targets, dtype=np.float64)
    tile = max(_TILE_ROWS, _TILE_CELLS // max(1, targets.shape[0]))
    tile = max(1, min(tile, points.shape[0]))
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
