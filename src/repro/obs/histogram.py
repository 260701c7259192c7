"""Fixed-bucket histogram metrics for the observability recorder.

Counters answer "how much in total"; histograms answer "how is it
distributed" — per-chunk KDE evaluation latency, rows per second,
quarantine batch sizes. A :class:`Histogram` is the classic
Prometheus-style fixed-bucket shape: a monotone tuple of upper bucket
bounds plus an overflow bucket, a running count and a running sum.
Buckets are *fixed per metric name* (see
:data:`repro.obs.schema.HISTOGRAM_SCHEMA`), which is what makes two
histograms of the same metric mergeable bucket-by-bucket — the property
the :mod:`repro.parallel` harness relies on when it folds worker
histograms back into the caller's recorder, exactly as it already folds
counters.

Quantiles (p50/p90/p99 in manifests) are estimated by linear
interpolation inside the covering bucket, the same estimate the
Prometheus ``histogram_quantile`` function computes. They are summaries
of a lossy sketch: precision is bucket-bounded by design.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Histogram",
]


class Histogram:
    """Mergeable fixed-bucket histogram of one metric.

    Parameters
    ----------
    name:
        Metric name (a key of ``HISTOGRAM_SCHEMA`` for registered
        metrics).
    bounds:
        Strictly increasing upper bucket bounds. An implicit overflow
        bucket catches values above the last bound, so ``counts`` has
        ``len(bounds) + 1`` entries.

    Examples
    --------
    >>> h = Histogram("latency_s", (0.1, 1.0))
    >>> for v in (0.05, 0.2, 0.3, 5.0):
    ...     h.observe(v)
    >>> h.counts
    [1, 2, 1]
    >>> h.count, round(h.sum, 2)
    (4, 5.55)
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram bounds must be strictly increasing and "
                f"non-empty; got {bounds!r}."
            )
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts: list[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (buckets are ``value <= bound``)."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    # -- merging -------------------------------------------------------------

    def merge(self, other: "Histogram | dict") -> None:
        """Fold another histogram of the same metric into this one.

        Accepts a :class:`Histogram` or its :meth:`to_dict` form — the
        shape worker recorders ship across process boundaries.

        Parameters
        ----------
        other:
            The histogram to absorb. Its bucket bounds must match.
        """
        if isinstance(other, dict):
            other = Histogram.from_dict(other)
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                f"differ ({other.bounds!r} vs {self.bounds!r})."
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum

    # -- summaries -----------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile by interpolation inside the bucket.

        Parameters
        ----------
        q:
            Quantile in ``[0, 1]``.

        Returns
        -------
        float
            ``0.0`` for an empty histogram; observations in the overflow
            bucket clamp to the highest bound (the sketch holds no upper
            edge there).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]; got {q}.")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                if i >= len(self.bounds):
                    return self.bounds[-1]
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = self.bounds[i]
                fraction = (rank - cumulative) / n
                return lo + (hi - lo) * min(1.0, max(0.0, fraction))
            cumulative += n
        return self.bounds[-1]

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable form, with p50/p90/p99 summaries included."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    @classmethod
    def from_dict(cls, data: dict, name: str = "") -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output.

        Parameters
        ----------
        data:
            Dictionary in the :meth:`to_dict` schema (the quantile
            summaries are recomputed, not trusted).
        name:
            Metric name to attach (dictionaries do not carry it).

        Raises
        ------
        ValueError
            If a required key is missing or the counts length does not
            match the bounds — schema drift across shard workers must
            fail loudly, not silently mis-bin.
        """
        missing = [
            key
            for key in ("bounds", "counts", "count", "sum")
            if key not in data
        ]
        if missing:
            raise ValueError(
                f"histogram {name!r}: payload is missing required "
                f"key(s) {', '.join(repr(k) for k in missing)}; got "
                f"keys {sorted(data)!r}."
            )
        hist = cls(name, tuple(data["bounds"]))
        counts = [int(n) for n in data["counts"]]
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram {name!r}: {len(counts)} bucket counts for "
                f"{len(hist.bounds)} bounds."
            )
        hist.counts = counts
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        return hist
