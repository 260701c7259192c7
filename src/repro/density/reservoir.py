"""Reservoir sampling (Li's Algorithm L) over data streams.

The kernel density estimator picks its kernel centers as a uniform
random sample of the dataset, collected *during* the single fit pass —
reservoir sampling is what makes that possible without knowing ``n`` up
front.

The implementation is the chunk-vectorised form of Algorithm L (Li,
"Reservoir-Sampling Algorithms of Time Complexity O(n(1 + log(N/n)))",
TOMS 1994). Instead of offering every row to the reservoir one at a
time — Vitter's Algorithm R, a pure-Python loop that dominated KDE fit
time — the sampler draws *geometric skip lengths*: after the reservoir
fills, it computes how many rows to jump over before the next
replacement, so per-chunk work is proportional to the handful of
accepted rows (about ``capacity * log(n / capacity)`` in total), not to
the rows seen. Uniform draws come from a small batched buffer so the
skip loop costs a few array reads per acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs import get_recorder
from repro.utils.streams import DataStream, as_stream
from repro.utils.validation import check_random_state

__all__ = [
    "ReservoirPlan",
    "ReservoirSampler",
    "reservoir_sample",
]

#: Uniform draws are floored here before ``log`` so a (measure-zero)
#: 0.0 from the generator cannot produce an infinite skip.
_TINY = 1e-300

#: Uniform draws buffered per refill (batched RNG for the skip loop).
_BUFFER_SIZE = 192


@dataclass(frozen=True)
class ReservoirPlan:
    """Data-free acceptance plan for one reservoir pass over ``n_rows``.

    Algorithm L's draw sequence depends only on the capacity, the row
    count and the generator — never on row *values* or on how the rows
    are chunked — so the whole pass can be planned up front: which
    absolute row indices are accepted, and into which slot each one
    goes. Shard workers then fetch exactly the planned rows with no
    generator of their own, and :meth:`assemble` reproduces the
    reservoir contents byte-identically to a serial pass (see
    :mod:`repro.sharding`).

    Attributes
    ----------
    capacity:
        Reservoir capacity the plan was drawn for.
    n_rows:
        Stream length the plan covers.
    fill:
        Rows copied verbatim during the fill phase
        (``min(capacity, n_rows)``).
    events:
        Post-fill acceptances in stream order:
        ``(absolute row index, reservoir slot)`` pairs.
    """

    capacity: int
    n_rows: int
    fill: int
    events: tuple[tuple[int, int], ...]

    @property
    def accepts(self) -> int:
        """Total acceptances (fill copies plus replacement events)."""
        return self.fill + len(self.events)

    def wanted_indices(self) -> np.ndarray:
        """Sorted absolute indices of every row the plan needs fetched."""
        events = np.asarray(self.events, dtype=np.int64).reshape(-1, 2)
        fill = np.arange(self.fill, dtype=np.int64)
        return np.concatenate([fill, events[:, 0]])

    def assemble(self, indices, rows) -> np.ndarray:
        """Reservoir contents from fetched rows.

        ``rows[i]`` is the row at absolute index ``indices[i]``; extra
        rows are ignored. The result equals applying the fill rows and
        then replaying the replacement events in stream order — the
        writes :meth:`ReservoirSampler.extend` would have performed —
        done as one gather plus, per slot, its last event's write.
        """
        wanted = self.wanted_indices()
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        missing = wanted[~np.isin(wanted, indices)]
        if missing.size:
            raise ValueError(
                f"reservoir plan is missing {missing.size} fetched row(s) "
                f"(first: index {missing[0]})."
            )
        if self.fill == 0:
            return np.empty((0, 0))
        order = np.argsort(indices, kind="stable")
        pos = order[np.searchsorted(indices[order], wanted)]
        planned = np.asarray(rows, dtype=np.float64)[pos]
        reservoir = planned[: self.fill].copy()
        # Events overwrite slots in stream order, so each slot ends up
        # holding its last event's row: the first hit of each slot in
        # the reversed event sequence.
        slots = np.asarray(self.events, dtype=np.int64).reshape(-1, 2)[::-1, 1]
        slot, first = np.unique(slots, return_index=True)
        reservoir[slot] = planned[planned.shape[0] - 1 - first]
        return reservoir


class ReservoirSampler:
    """Maintains a uniform sample of fixed capacity over a stream.

    Feed chunks with :meth:`extend`; at any moment :attr:`sample` is a
    uniform random subset (without replacement) of everything seen.

    Parameters
    ----------
    capacity:
        Maximum number of rows retained.
    random_state:
        Seed or generator controlling replacement decisions.
    """

    def __init__(self, capacity: int, random_state=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1; got {capacity}.")
        self.capacity = int(capacity)
        self._rng = check_random_state(random_state)
        self._reservoir: np.ndarray | None = None
        self._filled = 0
        self.n_seen = 0
        # Algorithm L state: the running weight ``w`` and the absolute
        # (0-based) index of the next accepted row.
        self._w = 1.0
        self._next_accept = 0
        # Batched uniform draws for the skip loop.
        self._buffer = np.empty(0)
        self._buffer_pos = 0
        # Set once plan() has consumed the sampler (see plan()).
        self._planned = False

    def extend(self, chunk) -> None:
        """Offer a chunk of rows to the reservoir."""
        if self._planned:
            raise ValueError(
                "this sampler was consumed by plan(); its generator "
                "state already reflects a full pass, so it cannot be "
                "fed rows."
            )
        chunk = np.atleast_2d(np.asarray(chunk, dtype=np.float64))
        n_rows = chunk.shape[0]
        if n_rows == 0:
            return
        if self._reservoir is None:
            self._reservoir = np.empty((self.capacity, chunk.shape[1]))
        accepts = 0
        pos = 0
        if self._filled < self.capacity:
            # Fill phase: copy rows in bulk until the reservoir is full.
            take = min(self.capacity - self._filled, n_rows)
            self._reservoir[self._filled : self._filled + take] = chunk[:take]
            self._filled += take
            self.n_seen += take
            accepts += take
            pos = take
            if self._filled == self.capacity:
                self._schedule_next(self.n_seen - 1)
            if pos >= n_rows:
                get_recorder().count("reservoir_accepts", accepts)
                return
        # Skip phase: jump straight to each accepted row.
        base = self.n_seen - pos  # absolute index of chunk[0]
        end = base + n_rows
        while self._next_accept < end:
            row = chunk[self._next_accept - base]
            slot = int(self._uniform() * self.capacity)
            self._reservoir[slot] = row
            accepts += 1
            self._schedule_next(self._next_accept)
        self.n_seen = end
        if accepts:
            get_recorder().count("reservoir_accepts", accepts)

    def _schedule_next(self, current: int) -> None:
        """Update ``w`` and draw the geometric skip to the next accept."""
        k = self.capacity
        self._w *= math.exp(math.log(max(self._uniform(), _TINY)) / k)
        log_keep = math.log1p(-self._w)
        if log_keep == 0.0:  # w underflowed to 0: skips are astronomical
            self._next_accept = 2**63
            return
        skip = math.floor(math.log(max(self._uniform(), _TINY)) / log_keep)
        self._next_accept = current + int(skip) + 1

    def _uniform(self) -> float:
        """Next uniform draw from the batched buffer."""
        if self._buffer_pos >= self._buffer.shape[0]:
            self._buffer = self._rng.random(_BUFFER_SIZE)
            self._buffer_pos = 0
        value = self._buffer[self._buffer_pos]
        self._buffer_pos += 1
        return float(value)

    # -- sharding ------------------------------------------------------------

    def plan(self, n_rows: int) -> ReservoirPlan:
        """Plan one pass over ``n_rows`` rows without seeing any data.

        Consumes this sampler's generator exactly as :meth:`extend`
        over the same rows would (the Algorithm L draw sequence is
        data- and chunking-independent), so after planning the
        generator state matches the post-fit serial state — the
        property that keeps downstream draws byte-identical when a fit
        is sharded. The sampler is consumed by planning: it must be
        fresh, and must not be fed rows afterwards.
        """
        if self.n_seen or self._reservoir is not None:
            raise ValueError(
                "plan() needs a fresh sampler; this one has already "
                f"seen {self.n_seen} row(s)."
            )
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0; got {n_rows}.")
        self._planned = True
        fill = min(self.capacity, int(n_rows))
        events: list[tuple[int, int]] = []
        self.n_seen = fill
        if fill == self.capacity:
            self._schedule_next(self.n_seen - 1)
            while self._next_accept < n_rows:
                slot = int(self._uniform() * self.capacity)
                events.append((self._next_accept, slot))
                self._schedule_next(self._next_accept)
            self.n_seen = int(n_rows)
        return ReservoirPlan(
            capacity=self.capacity,
            n_rows=int(n_rows),
            fill=fill,
            events=tuple(events),
        )

    @property
    def sample(self) -> np.ndarray:
        """The current reservoir contents, shape ``(min(n, capacity), d)``."""
        if self._reservoir is None:
            return np.empty((0, 0))
        return self._reservoir[: self._filled].copy()


def reservoir_sample(
    data, size: int, random_state=None, *, stream: DataStream | None = None
) -> np.ndarray:
    """One-shot uniform sample of ``size`` rows in a single pass.

    Accepts an array or an existing :class:`DataStream` (pass counting
    then reflects the extra pass this sample costs).
    """
    source = stream if stream is not None else as_stream(data)
    sampler = ReservoirSampler(size, random_state=random_state)
    for chunk in source:
        sampler.extend(chunk)
    return sampler.sample
