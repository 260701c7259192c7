"""Geometric helpers: distances and ball volumes.

The outlier detector integrates density over Euclidean balls and the
clustering code needs fast pairwise distances; both live here so the
formulas are tested once.
"""

from __future__ import annotations

import math

import numpy as np

#: Rows per tile of :func:`count_within`. Its three ``(tile, centres)``
#: buffers take ~4.3 kB per centre, so a few hundred candidates fit in
#: cache.
_TILE_ROWS = 256

__all__ = [
    "ball_volume",
    "count_within",
    "pair_sq_distances",
    "pair_sq_distances_into",
    "pairwise_sq_distances",
    "sq_distances_to",
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


def pairwise_sq_distances(points: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances, shape ``(n, n)``.

    Computed via the expansion ``|x-y|^2 = |x|^2 + |y|^2 - 2 x.y`` with a
    clip at zero to absorb floating-point negatives on the diagonal.
    """
    sq_norms = np.einsum("ij,ij->i", points, points)
    gram = points @ points.T
    dists = sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram
    np.maximum(dists, 0.0, out=dists)
    return dists


def sq_distances_to(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared distances from each of ``points`` to each of ``targets``.

    Returns shape ``(len(points), len(targets))``.
    """
    p_norms = np.einsum("ij,ij->i", points, points)
    t_norms = np.einsum("ij,ij->i", targets, targets)
    dists = p_norms[:, None] + t_norms[None, :] - 2.0 * (points @ targets.T)
    np.maximum(dists, 0.0, out=dists)
    return dists


def pair_sq_distances(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared distances from ``points`` to ``targets``, one pair at a time.

    Returns shape ``(len(points), len(targets))``. Sums ``(p_j - t_j)^2``
    one coordinate at a time (see :func:`pair_sq_distances_into`). Every
    entry is the same sequence of rounded operations on its own two
    rows, so it does not depend on the shape of the call, swapping the
    arguments gives the transpose bit for bit, and duplicate rows give
    exactly 0. The Gram expansion in :func:`sq_distances_to` is faster
    for wide ``d`` but has neither property, and it cancels
    catastrophically for points far from the origin.
    """
    out = np.empty((points.shape[0], targets.shape[0]))
    return pair_sq_distances_into(points, targets, out, np.empty_like(out))


def pair_sq_distances_into(
    points: np.ndarray, targets: np.ndarray, out: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """:func:`pair_sq_distances` into caller-owned buffers.

    Parameters
    ----------
    points, targets:
        Arrays of shape ``(m, d)`` and ``(t, d)`` with ``d >= 1``.
    out:
        Float64 array of shape ``(m, t)``; receives the distances.
    buf:
        Float64 scratch array of the same shape; overwritten.

    Returns
    -------
    numpy.ndarray
        ``out``, holding ``sum_j (p_j - t_j)^2`` accumulated from
        coordinate 0 upwards.
    """
    np.subtract(points[:, 0, None], targets[None, :, 0], out=out)
    np.multiply(out, out, out=out)
    for j in range(1, points.shape[1]):
        np.subtract(points[:, j, None], targets[None, :, j], out=buf)
        np.multiply(buf, buf, out=buf)
        out += buf
    return out


def count_within(
    centres: np.ndarray, points: np.ndarray, radius_sq: float
) -> np.ndarray:
    """How many of ``points`` lie within the radius of each centre.

    ``points`` is scanned in tiles of 256 rows. Each tile's distances to
    every centre go through :func:`pair_sq_distances_into` into buffers
    allocated once per call, so the working memory is
    ``O(tile * len(centres))`` whatever the number of points. The
    distances are exact per-coordinate sums, so a count does not depend
    on how far the data sit from the origin, and splitting ``points``
    into blocks gives the same total.

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
    # Column-major, so each coordinate's centre values are contiguous.
    centres = np.asfortranarray(centres, dtype=np.float64)
    counts = np.zeros(centres.shape[0], dtype=np.int64)
    tile = max(1, min(_TILE_ROWS, points.shape[0]))
    dists = np.empty((tile, centres.shape[0]))
    buf = np.empty_like(dists)
    inside = np.empty(dists.shape, dtype=bool)
    for lo in range(0, points.shape[0], tile):
        block = points[lo : lo + tile]
        rows = block.shape[0]
        pair_sq_distances_into(block, centres, dists[:rows], buf[:rows])
        np.less_equal(dists[:rows], radius_sq, out=inside[:rows])
        counts += inside[:rows].sum(axis=0)
    return counts
