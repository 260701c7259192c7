"""Shared definitions for DB(p, k) outlier detection.

Definition 1 of the paper (after Knorr & Ng): an object ``O`` in dataset
``D`` is a ``DB(p, k)`` outlier if at most ``p`` objects of ``D`` lie at
distance at most ``k`` from ``O``. Following Knorr & Ng's convention the
object itself is *not* counted among its neighbours. ``p`` may also be
given as a fraction ``fr`` of the dataset size: ``p = fr * |D|``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.streams import DataStream

__all__ = [
    "OutlierDetector",
    "OutlierResult",
    "resolve_p",
    "is_db_outlier_count",
]


@dataclass(frozen=True)
class OutlierResult:
    """Output of an outlier detector.

    Attributes
    ----------
    indices:
        Row indices of the detected outliers, ascending.
    neighbor_counts:
        For each detected outlier, the number of dataset points within
        distance ``k`` (excluding itself). Exact detectors report exact
        counts; the approximate detector reports verified counts.
    n_passes:
        Number of dataset passes the detection used (the paper's
        efficiency metric: density fit + screening + verification).
    n_candidates:
        Likely outliers after screening (equal to the number of points
        for exact detectors).
    """

    indices: np.ndarray
    neighbor_counts: np.ndarray
    n_passes: int
    n_candidates: int

    def __len__(self) -> int:
        return self.indices.shape[0]


class OutlierDetector(abc.ABC):
    """Interface shared by every DB(p, k) detector.

    The experiment harness and the approximate/exact cross-checks treat
    detectors as interchangeable: anything with this surface can be
    swapped into the outlier experiments. Conformance (method presence
    *and* signature compatibility) is additionally enforced statically
    by the repro-audit RL005 rule.
    """

    @abc.abstractmethod
    def detect(self, data, *, stream: DataStream | None = None) -> OutlierResult:
        """Find all DB(p, k) outliers of ``data`` (one or more passes)."""


def resolve_p(p: int | None, fraction: float | None, n: int) -> int:
    """Resolve the neighbour-count threshold from ``p`` or a fraction."""
    if (p is None) == (fraction is None):
        raise ParameterError("specify exactly one of p and fraction.")
    if fraction is not None:
        if not 0.0 <= fraction < 1.0:
            raise ParameterError(
                f"fraction must be in [0, 1); got {fraction}."
            )
        return int(fraction * n)
    if p < 0:
        raise ParameterError(f"p must be >= 0; got {p}.")
    return int(p)


def is_db_outlier_count(neighbor_count: int, p: int) -> bool:
    """The DB(p, k) predicate given a known neighbour count.

    >>> is_db_outlier_count(3, p=5), is_db_outlier_count(6, p=5)
    (True, False)
    """
    return neighbor_count <= p
