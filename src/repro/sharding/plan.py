"""Shard plans: splitting one stream pass into row-range shards.

A :class:`ShardPlan` partitions the *chunk sequence* of a stream pass
into ``S`` contiguous ranges; every dataset scan of the fit, eval and
gather passes runs over one, and the unsharded scan is ``S = 1``.
Splitting on chunk boundaries (never inside a chunk) is what keeps the
scans byte-identical for any ``S``: every downstream consumer — moment
accumulators, policy application, density evaluation — sees exactly
the chunks a plain iteration would have seen, in the same order,
merely grouped by shard.

A :class:`ShardView` is one shard's window onto the parent stream. It
is deliberately *not* a ``DataStream`` subclass: a view is not a
re-iterable pass-counted dataset, it is a single-use reader whose pass
bookkeeping belongs to the coordinating scan (see
:mod:`repro.sharding.runner`).

The ambient shard count is the ``shards`` field of
:func:`repro.config.current_config` (``repro run --shards``,
:func:`use_shards`, ``REPRO_SHARDS``; default ``1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SHARDS_ENV, check_shards, current_config, use_config
from repro.exceptions import ParameterError

__all__ = [
    "SHARDS_ENV",
    "ShardPlan",
    "ShardSpec",
    "ShardView",
    "resolve_shards",
    "use_shards",
]


def resolve_shards(shards: int | None = None) -> int:
    """Validate an explicit shard count; ``None`` gives the ambient
    ``current_config().shards``."""
    return current_config().shards if shards is None else check_shards(shards)


def use_shards(shards: int | None):
    """Install an ambient shard count: ``use_config(shards=shards)``."""
    return use_config(shards=shards)


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the chunk sequence.

    Attributes
    ----------
    index:
        Shard position in plan order.
    chunk_lo / chunk_hi:
        Half-open chunk-index range ``[chunk_lo, chunk_hi)``.
    row_start / row_stop:
        Half-open surviving-row range the chunks cover.
    """

    index: int
    chunk_lo: int
    chunk_hi: int
    row_start: int
    row_stop: int

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def n_chunks(self) -> int:
        return self.chunk_hi - self.chunk_lo


@dataclass(frozen=True)
class ShardView:
    """Single-use reader for one shard's chunk range.

    ``chunks()`` yields ``(absolute surviving-row offset, chunk)``
    pairs byte-identical to the corresponding slice of the parent's
    ``iter_with_offsets()``; per-chunk recorder effects land on the
    ambient (worker) recorder and merge back through the parallel
    harness.
    """

    parent: object
    spec: ShardSpec

    def chunks(self):
        return self.parent.iter_chunk_range(
            self.spec.chunk_lo, self.spec.chunk_hi
        )


class ShardPlan:
    """A chunk-aligned split of one stream pass into ``S`` shards.

    Parameters
    ----------
    stream:
        A :class:`~repro.utils.streams.DataStream`; ``chunk_sizes()``
        and ``iter_chunk_range()`` are part of its contract.
    n_shards:
        Number of row-range shards; ``1`` is the unsharded scan. More
        shards than chunks simply leaves the surplus shards empty
        (they dispatch no work).
    """

    def __init__(self, stream, n_shards: int) -> None:
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ParameterError(f"n_shards must be >= 1; got {n_shards}.")
        self.stream = stream
        self.n_shards = n_shards
        self.chunk_sizes: tuple[int, ...] = tuple(
            int(s) for s in stream.chunk_sizes()
        )
        self.n_rows = sum(self.chunk_sizes)
        self.specs: tuple[ShardSpec, ...] = self._split()

    def _split(self) -> tuple[ShardSpec, ...]:
        n_chunks = len(self.chunk_sizes)
        base, extra = divmod(n_chunks, self.n_shards)
        specs = []
        chunk_lo = 0
        row_start = 0
        for index in range(self.n_shards):
            take = base + (1 if index < extra else 0)
            chunk_hi = chunk_lo + take
            rows = sum(self.chunk_sizes[chunk_lo:chunk_hi])
            specs.append(
                ShardSpec(
                    index=index,
                    chunk_lo=chunk_lo,
                    chunk_hi=chunk_hi,
                    row_start=row_start,
                    row_stop=row_start + rows,
                )
            )
            chunk_lo = chunk_hi
            row_start += rows
        return tuple(specs)

    def views(self) -> list[ShardView]:
        """One :class:`ShardView` per non-empty shard, in plan order.

        A stream with no chunks still gets the first (empty) shard's
        view, so its scan runs inline, returns no results and the
        empty input reaches the caller's own no-data check.
        """
        views = [
            ShardView(parent=self.stream, spec=spec)
            for spec in self.specs
            if spec.n_chunks
        ]
        return views or [ShardView(parent=self.stream, spec=self.specs[0])]
