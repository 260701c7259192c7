"""Dataset-pass abstraction.

The paper's efficiency claims are phrased in *dataset passes*: one pass to
fit the density estimator, one (or two) more to draw the sample / verify
outliers. :class:`DataStream` makes those passes explicit — algorithms
iterate chunks rather than indexing an array — and :class:`PassCounter`
lets tests assert that an algorithm really performed the number of passes
it advertises.

Every stream is *hardened*: rows with invalid values are handled by a
:class:`repro.faults.RowQuarantine` policy (strict raise / quarantine /
repair), bound at construction from the ``fault_policy`` argument or the
ambient :func:`repro.faults.use_fault_policy` context. The in-memory
stream applies the policy once, chunk by chunk, at construction — so
``n_points`` always equals the number of rows the stream delivers per
pass, the invariant samplers rely on when pre-allocating per-row
buffers and masks keyed by stream offsets.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import DataValidationError
from repro.obs import get_recorder
from repro.utils.validation import check_array

__all__ = [
    "DataStream",
    "PassCounter",
    "as_stream",
]


class DataStream:
    """A re-iterable, chunked view of an in-memory dataset.

    Parameters
    ----------
    data:
        Array-like of shape ``(n, d)``.
    chunk_size:
        Number of rows yielded per chunk. The last chunk may be smaller.
    fault_policy:
        How invalid (NaN/Inf) rows are handled: a mode name
        (``"strict"``, ``"quarantine"``, ``"repair"``), a
        :class:`repro.faults.RowQuarantine`, or ``None`` to bind the
        ambient policy (default strict — identical behaviour to the
        historical unconditional validation). The policy is applied
        chunk-wise at construction, so iteration always yields clean
        chunks and ``n_points`` counts surviving rows only.

    Notes
    -----
    The class models a dataset that is too large to process at once: code
    written against it performs sequential passes only. For this
    reproduction the backing store is an in-memory array, but any
    out-of-core source exposing the same contract would work. The
    contract is ``__iter__`` / :meth:`iter_with_offsets` /
    :meth:`materialize` (each one counted pass), ``n_points`` /
    ``n_dims`` / ``passes``, and the shard-support pair
    :meth:`chunk_sizes` / :meth:`iter_chunk_range`: every fit, eval
    and gather scan is a :class:`repro.sharding.ShardPlan` scan built
    on those two, so a subclass that changes how chunks are produced
    must override both.
    """

    def __init__(
        self, data, chunk_size: int = 65536, fault_policy=None
    ) -> None:
        # Imported lazily: repro.faults wraps streams, so importing it at
        # module scope would be circular.
        from repro.faults.policy import resolve_fault_policy

        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1; got {chunk_size}.")
        self.chunk_size = int(chunk_size)
        policy = resolve_fault_policy(fault_policy)
        self.fault_policy = policy
        if policy.mode == "strict" and policy.max_abs is None:
            self._data = check_array(data, name="data")
        else:
            self._data = self._sanitize(
                check_array(data, name="data", allow_nonfinite=True), policy
            )
        self.n_points = self._data.shape[0]
        self.n_dims = self._data.shape[1]
        self.passes = 0

    def _sanitize(self, arr: np.ndarray, policy) -> np.ndarray:
        """Apply the fault policy chunk-wise (quarantine/repair semantics
        match what a chunked pass over the same data would produce)."""
        parts = []
        with get_recorder().phase("validate") as span:
            for start in range(0, arr.shape[0], self.chunk_size):
                chunk = arr[start : start + self.chunk_size]
                parts.append(
                    policy.apply(chunk, origin="data", start=start)
                )
            clean = np.vstack(parts) if parts else arr
            span.set(
                rows_in=int(arr.shape[0]),
                rows_out=int(clean.shape[0]),
                policy=policy.mode,
            )
        if clean.shape[0] == 0:
            raise DataValidationError(
                "every row was quarantined; the dataset holds no valid "
                "rows under the configured fault policy."
            )
        return np.ascontiguousarray(clean)

    def __iter__(self) -> Iterator[np.ndarray]:
        for _, chunk in self.iter_with_offsets():
            yield chunk

    def __len__(self) -> int:
        return self.n_points

    def iter_with_offsets(self) -> Iterator[tuple[int, np.ndarray]]:
        """Like ``__iter__`` but also yields the row offset of each chunk.

        One counted pass (``passes`` and ``data_passes``) over every
        chunk, read through :meth:`iter_chunk_range` — the per-chunk
        path shard scans use, so both see the same chunks.
        """
        self.passes += 1
        get_recorder().count("data_passes")
        yield from self.iter_chunk_range(0, len(self.chunk_sizes()))

    def materialize(self) -> np.ndarray:
        """Return the full dataset as one array (counts as one pass)."""
        self.passes += 1
        recorder = get_recorder()
        recorder.count("data_passes")
        recorder.count("points_seen", self.n_points)
        return self._data

    # -- shard support (see repro.sharding) ----------------------------------

    def chunk_sizes(self) -> tuple[int, ...]:
        """Surviving-row count of every chunk one pass would yield.

        Bookkeeping, not a scan: computed from the stream's metadata,
        so it is not counted in ``passes`` or ``data_passes``. A
        :class:`repro.sharding.ShardPlan` uses it to split the chunk
        sequence across shards without perturbing chunk boundaries.
        """
        return tuple(
            min(self.chunk_size, self.n_points - start)
            for start in range(0, self.n_points, self.chunk_size)
        )

    def iter_chunk_range(
        self, lo: int, hi: int
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(offset, chunk)`` for chunk indices ``[lo, hi)``.

        The per-chunk read path of every pass: records the per-chunk
        effects (``points_seen``, the ``stream_chunk_rows`` histogram).
        The pass itself is owned by the caller —
        :meth:`iter_with_offsets`, or a coordinating shard scan (see
        :mod:`repro.sharding`) — so neither ``passes`` nor
        ``data_passes`` is bumped here.
        """
        recorder = get_recorder()
        for start in range(
            lo * self.chunk_size, min(hi * self.chunk_size, self.n_points),
            self.chunk_size,
        ):
            chunk = self._data[start : start + self.chunk_size]
            recorder.count("points_seen", chunk.shape[0])
            recorder.observe("stream_chunk_rows", chunk.shape[0])
            yield start, chunk


class PassCounter:
    """Context helper recording how many passes a block of code performed.

    Examples
    --------
    >>> stream = as_stream([[0.0], [1.0]])
    >>> with PassCounter(stream) as counter:
    ...     _ = [chunk for chunk in stream]
    >>> counter.passes
    1
    """

    def __init__(self, stream: DataStream) -> None:
        self._stream = stream
        self._start = 0
        self.passes = 0

    def __enter__(self) -> "PassCounter":
        self._start = self._stream.passes
        return self

    def __exit__(self, *exc_info) -> None:
        self.passes = self._stream.passes - self._start


def as_stream(data, chunk_size: int = 65536) -> DataStream:
    """Coerce ``data`` to a :class:`DataStream` (no-op if it already is one).

    A freshly wrapped array is validated under the *ambient* fault
    policy (see :func:`repro.faults.use_fault_policy`); an existing
    stream keeps whatever policy it was built with.
    """
    if isinstance(data, DataStream):
        return data
    if data is None:
        raise DataValidationError(
            "no input given: pass a (n_points, n_dims) array as data, or a "
            "DataStream via the stream keyword."
        )
    return DataStream(data, chunk_size=chunk_size)
