"""Shard fan-out execution: the one scan primitive and its bookkeeping.

Every dataset scan of the fit, evaluation and gather passes runs
through :func:`shard_map`: one *logical* pass is executed as the ``S``
row-range shards of a :class:`~repro.sharding.plan.ShardPlan`, and the
unsharded run is simply ``S = 1`` — its one shard runs inline on the
coordinator, with no dispatch. With ``S > 1`` the shards fan out
through the existing :mod:`repro.parallel` backends. Either way the
scan maps one per-chunk function over the plan's chunks and returns
the per-chunk results *in stream order*; each caller then folds them
on the coordinator, in global chunk order, which is what makes every
scan byte-identical for any ``S`` and any ``n_jobs``.

The coordinator owns the pass bookkeeping (one ``passes`` bump and one
``data_passes`` count per logical scan); shard workers own only the
per-chunk effects (``points_seen``, ``stream_chunk_rows``,
fault-policy counters), which the parallel harness records on worker
recorders and merges back in submission — i.e. shard — order.

Density evaluation fans out here only, in :func:`evaluate_chunks`;
estimators evaluate serially.

Per-chunk functions are deliberately generator-free: all randomness
stays on the coordinator (reservoir acceptance is pre-planned by
:meth:`repro.density.reservoir.ReservoirSampler.plan`, Bernoulli draws
happen against the reassembled probability array), so shard results
cannot depend on worker scheduling.
"""

from __future__ import annotations

from functools import partial
from itertools import islice

import numpy as np

from repro.exceptions import DataValidationError
from repro.obs import get_recorder
from repro.parallel import parallel_map_chunks, resolve_n_jobs
from repro.sharding.plan import ShardPlan, resolve_shards

__all__ = [
    "SHARD_EVAL_PHASE",
    "SHARD_FIT_PHASE",
    "SHARD_GATHER_PHASE",
    "EVAL_WINDOW_CHUNKS",
    "evaluate_chunks",
    "shard_map",
    "sharded_gather",
]

#: Span labels for the three scan kinds' fan-outs, passed into
#: :func:`shard_map` by parameter. A fan-out's span opens inside its
#: caller's phase, and the scan's ``data_passes`` count lands in that
#: phase, which is what the declared ``__n_passes__`` tables describe.
SHARD_FIT_PHASE = "shard_fit"
SHARD_EVAL_PHASE = "shard_eval"
SHARD_GATHER_PHASE = "shard_gather"

#: Chunks buffered per fan-out of :func:`evaluate_chunks`. Bounds a
#: streamed evaluation's working set at a few chunks while amortising
#: dispatch over several chunks per round trip.
EVAL_WINDOW_CHUNKS = 8


def evaluate_chunks(chunks, evaluate):
    """Yield ``(offset, chunk, evaluate(chunk))`` in stream order.

    The one fan-out point of density evaluation. ``chunks`` is any
    iterable of ``(offset, chunk)`` pairs; ``evaluate`` must be
    row-local and deterministic. With one worker each chunk is
    evaluated inline. Otherwise windows of :data:`EVAL_WINDOW_CHUNKS`
    chunks go through :func:`repro.parallel.parallel_map_chunks`, each
    chunk cut into row ranges when the window has fewer chunks than
    workers. Values and merged counters are byte-identical to the
    serial loop for any worker count.
    """
    n_jobs = resolve_n_jobs()
    chunks = iter(chunks)
    if n_jobs == 1:
        for offset, chunk in chunks:
            yield offset, chunk, evaluate(chunk)
        return
    while window := list(islice(chunks, EVAL_WINDOW_CHUNKS)):
        parts = -(-n_jobs // len(window))
        pieces, spans = [], []
        for _offset, chunk in window:
            rows = chunk.shape[0]
            cuts = max(1, min(parts, rows))
            spans.append((len(pieces), len(pieces) + cuts))
            pieces.extend(
                chunk[rows * i // cuts : rows * (i + 1) // cuts]
                for i in range(cuts)
            )
        values = parallel_map_chunks(evaluate, pieces)
        for (offset, chunk), (lo, hi) in zip(window, spans):
            yield offset, chunk, np.concatenate(values[lo:hi])


def _scan_shard(per_chunk, combine, row_local, view):
    """Map ``per_chunk`` over one shard's chunks, in stream order.

    With ``combine`` the shard folds its results as they arrive and
    returns at most one; otherwise it returns one result per chunk.
    """
    if row_local:
        results = (
            values
            for _offset, _chunk, values in evaluate_chunks(
                view.chunks(), per_chunk
            )
        )
    else:
        results = (per_chunk(offset, chunk) for offset, chunk in view.chunks())
    if combine is None:
        return list(results)
    folded = None
    for result in results:
        folded = result if folded is None else combine(folded, result)
    return [] if folded is None else [folded]


def shard_map(
    plan: ShardPlan,
    per_chunk,
    *,
    phase=SHARD_FIT_PHASE,
    fit=False,
    combine=None,
    row_local=False,
):
    """Run one logical scan of ``plan``: per-chunk results in stream order.

    ``per_chunk(offset, chunk)`` maps one chunk (``offset`` is its
    absolute surviving-row offset) to its result. It must be
    deterministic and generator-free; with the process backend it must
    also pickle, so pass a module-level function, wrapped in
    :func:`functools.partial` where it needs arguments.

    The shards partition the chunk sequence, so the scan reads each row
    of the plan's stream exactly once: one dataset pass for any ``S``
    or ``n_jobs``. A single shard — every ``S = 1`` scan — runs inline
    on the coordinator: no dispatch, no pickling, no ``worker_task``
    span and no ``n_jobs=1`` override. Otherwise the shards fan out
    through :func:`~repro.parallel.parallel_map_chunks` under a
    ``phase`` span, each with ``n_jobs=1``.

    Parameters
    ----------
    plan:
        The scan's :class:`~repro.sharding.plan.ShardPlan`.
    per_chunk:
        The per-chunk function.
    phase:
        Span label of the fan-out (one of the ``SHARD_*_PHASE``
        constants).
    fit:
        Whether the scan fits an estimator; counts ``shards_fitted``.
    combine:
        An *exact* binary fold of two results — elementwise min/max or
        integer addition, the only algebras that are associative bit
        for bit. Each shard then pre-reduces its own chunks and the
        scan returns one result per non-empty shard, in shard order,
        which keeps a shard's memory at one result. Floating-point
        folds must not use it: they run once, on the coordinator.
    row_local:
        ``per_chunk`` maps a chunk *alone* to one value per row (a
        density evaluation) and is called as ``per_chunk(chunk)``
        through :func:`evaluate_chunks`, so an ``S = 1`` scan fans its
        chunks out over the ambient worker count.

    Returns
    -------
    list
        The results, in stream order.

    The shard bookkeeping counters (``shard_rows``, ``shard_merges`` —
    one per shard result joined after the first — and
    ``shards_fitted`` for ``fit`` scans) describe a fan-out, so they
    fire only when the plan has more than one shard. An ``S = 1`` scan
    thus records exactly the counters of a serial loop.
    """
    views = plan.views()
    plan.stream.passes += 1
    recorder = get_recorder()
    recorder.count("data_passes")
    if plan.n_shards > 1:
        recorder.count("shard_rows", plan.n_rows)
        if fit:
            recorder.count("shards_fitted", len(views))
    if len(views) == 1:
        shards = [_scan_shard(per_chunk, combine, row_local, views[0])]
    else:
        with recorder.phase(phase):
            shards = parallel_map_chunks(
                partial(_scan_shard, per_chunk, combine, row_local), views
            )
        recorder.count("shard_merges", len(views) - 1)
    return [result for shard in shards for result in shard]


def _select_rows(mask, offset, chunk):
    """``(rows scanned, selected rows or None)`` for one chunk."""
    local = mask[offset : offset + chunk.shape[0]]
    return chunk.shape[0], chunk[local] if local.any() else None


def sharded_gather(source, mask) -> np.ndarray:
    """Masked row gather in one scan, sharded over the ambient ``S``.

    The mask is precomputed by the coordinator (all randomness stays
    there); each chunk slices its own window of it. Raises
    :class:`DataValidationError` when the scanned row count disagrees
    with the mask length.
    """
    plan = ShardPlan(source, resolve_shards())
    mask = np.asarray(mask)
    picked = shard_map(
        plan, partial(_select_rows, mask), phase=SHARD_GATHER_PHASE
    )
    seen = sum(rows for rows, _selected in picked)
    if seen != mask.shape[0]:
        raise DataValidationError(
            f"stream yielded {seen} rows in the gather pass but the "
            f"selection mask covers {mask.shape[0]}; passes disagree "
            "on the surviving-row count."
        )
    parts = [selected for _rows, selected in picked if selected is not None]
    if not parts:
        return np.empty((0, source.n_dims))
    return np.vstack(parts)
