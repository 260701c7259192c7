"""Label the full dataset from a clustering computed on a sample.

After the hierarchical algorithm runs on a (biased) sample, the paper's
pipeline labels every original point by its nearest cluster — CURE
assigns by the nearest *representative* point, which respects
non-spherical shapes better than nearest-center assignment. Both
policies are offered.

The nearest anchor (representative or center) is found by an exact
scan, :func:`~repro.utils.geometry.nearest`, once per stream chunk:
each row's squared distance to every anchor is summed one coordinate at
a time, and the smallest wins. Ties go to the lowest anchor index,
which is the lowest cluster label. Every caller labels against at most
``(n_clusters + 3) * c`` anchors (130 with ``n_clusters = 10`` and
``c = 10``). At that size the scan is as fast as a kd-tree query, and
the library's sample → cluster → label path needs numpy only.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import ClusteringResult
from repro.exceptions import DataValidationError, ParameterError
from repro.utils.geometry import nearest
from repro.utils.streams import DataStream, as_stream

__all__ = ["assign_to_clusters"]


def assign_to_clusters(
    data,
    result: ClusteringResult,
    *,
    policy: str = "representatives",
    stream: DataStream | None = None,
) -> np.ndarray:
    """Nearest-cluster label for every point of ``data``.

    Distances are exact per-coordinate sums (no Gram expansion, so
    points far from the origin do not cancel). A point equidistant from
    anchors of several clusters gets the lowest of their labels.

    Parameters
    ----------
    data:
        The full dataset (array or :class:`DataStream`); labelling takes
        one sequential pass.
    result:
        A clustering computed on a sample of ``data``.
    policy:
        ``"representatives"`` — nearest representative point decides
        (CURE's rule); ``"centers"`` — nearest cluster center decides.
    stream:
        Pre-built :class:`DataStream` over the dataset; overrides
        ``data`` when given.

    Returns
    -------
    numpy.ndarray
        Integer labels of shape ``(len(data),)``.

    Raises
    ------
    DataValidationError
        If the data's dimensionality differs from the clustering's.
    """
    if policy not in ("representatives", "centers"):
        raise ParameterError(
            f"policy must be 'representatives' or 'centers'; got {policy!r}."
        )
    if result.n_clusters == 0:
        raise ParameterError("clustering result has no clusters.")
    if policy == "centers" or not result.representatives:
        anchors = result.centers
        anchor_label = np.arange(result.n_clusters)
    else:
        anchors = np.vstack(result.representatives)
        anchor_label = np.concatenate(
            [
                np.full(reps.shape[0], label)
                for label, reps in enumerate(result.representatives)
            ]
        )
    n_dims = anchors.shape[1]
    source = stream if stream is not None else as_stream(data)
    labels = np.empty(len(source), dtype=np.int64)
    for start, chunk in source.iter_with_offsets():
        if chunk.shape[1] != n_dims:
            raise DataValidationError(
                f"assign_to_clusters: rows from offset {start} have "
                f"d={chunk.shape[1]} but the clustering's anchors have "
                f"d={n_dims}."
            )
        index, _ = nearest(chunk, anchors)
        labels[start : start + chunk.shape[0]] = anchor_label[index]
    return labels
