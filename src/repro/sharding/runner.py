"""Shard fan-out execution: dispatch, pass bookkeeping, folding.

Every dataset scan of the fit, evaluation and gather passes runs here:
one *logical* pass is executed as the ``S`` shard tasks of a
:class:`~repro.sharding.plan.ShardPlan`, and the unsharded run is
simply ``S = 1`` — its one task runs inline on the coordinator, with no
dispatch. With ``S > 1`` the tasks fan out through the existing
:mod:`repro.parallel` backends. The coordinator owns the pass
bookkeeping (one ``passes`` bump and one ``data_passes`` count per
logical scan); shard workers own only the per-chunk effects
(``points_seen``, ``stream_chunk_rows``, fault-policy counters), which
the parallel harness records on worker recorders and merges back in
submission — i.e. shard — order. The shard partials themselves are
folded with a deterministic left fold
(:func:`repro.sharding.partials.merge_partials`), which is what makes
every scan byte-identical for any ``S`` and any ``n_jobs``.

Density evaluation fans out here only, in :func:`evaluate_chunks`;
estimators evaluate serially.

Workers here are deliberately generator-free: all randomness stays on
the coordinator (reservoir acceptance is pre-planned by
:meth:`repro.density.reservoir.ReservoirSampler.plan`, Bernoulli draws
happen against the reassembled probability array), so shard results
cannot depend on worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.exceptions import DataValidationError
from repro.obs import get_recorder
from repro.parallel import parallel_map_chunks, resolve_n_jobs
from repro.sharding.partials import (
    BoundsShard,
    GatherShard,
    NormalizerShard,
    ShardFitState,
    TreeCountShard,
    merge_partials,
)
from repro.sharding.plan import ShardPlan, ShardView, resolve_shards

__all__ = [
    "SHARD_EVAL_PHASE",
    "SHARD_FIT_PHASE",
    "SHARD_GATHER_PHASE",
    "EVAL_WINDOW_CHUNKS",
    "bounds_shards",
    "eval_shards",
    "evaluate_chunks",
    "fit_shards",
    "shard_map",
    "sharded_gather",
    "tree_count_shards",
]

#: Span labels for the three scan kinds' fan-outs. They are module
#: constants passed *by parameter* into :func:`shard_map`, so every
#: fan-out opens its span under the same label while each call site
#: stays free of a literal phase string: an audited entry's scan is
#: then attributed to the phase the entry itself opened, which is what
#: the declared ``__n_passes__`` tables describe.
SHARD_FIT_PHASE = "shard_fit"
SHARD_EVAL_PHASE = "shard_eval"
SHARD_GATHER_PHASE = "shard_gather"

#: Chunks buffered per fan-out of :func:`evaluate_chunks`. Bounds a
#: streamed evaluation's working set at a few chunks while amortising
#: dispatch over several chunks per round trip.
EVAL_WINDOW_CHUNKS = 8


@dataclass(frozen=True)
class _FitTask:
    """One shard of a fit scan: a view plus its planned row fetches."""

    view: ShardView
    wanted: np.ndarray


@dataclass(frozen=True)
class _EvalTask:
    """One shard of a density-evaluation scan."""

    view: ShardView
    evaluate: object


@dataclass(frozen=True)
class _GatherTask:
    """One shard of a masked gather scan; ``mask`` is shard-local."""

    view: ShardView
    mask: np.ndarray


def shard_map(worker, tasks, *, phase=SHARD_FIT_PHASE):
    """Fan shard ``tasks`` out to ``worker`` under a ``phase`` span.

    A shard fan-out reads each row of the plan's stream exactly once:
    the tasks partition the chunk sequence, so the dispatch costs one
    dataset pass in total regardless of ``S`` or ``n_jobs``. Results
    come back in task (shard) order. The worker count is the ambient
    one (:func:`repro.parallel.resolve_n_jobs`), and every task runs
    with ``n_jobs=1``.

    A single task — every ``S = 1`` scan — runs inline on the
    coordinator: no dispatch, no pickling, no ``worker_task`` span and
    no ``n_jobs=1`` override, so an eval scan's
    :func:`evaluate_chunks` still fans out over the ambient count.
    """
    tasks = list(tasks)
    if len(tasks) == 1:
        return [worker(tasks[0])]
    with get_recorder().phase(phase):
        return parallel_map_chunks(worker, tasks)


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


def _begin_scan(plan: ShardPlan, tasks, *, fit: bool = False) -> None:
    """Coordinator-side bookkeeping for one logical scan of ``plan``.

    Pass bookkeeping mirrors one plain iteration of the stream. The
    shard bookkeeping counters (``shard_rows``, plus ``shards_fitted``
    for the estimator-fitting scans) describe a fan-out, so they fire
    only when the plan has more than one shard — and one shard yields
    one partial, which ``merge_partials`` folds without counting
    ``shard_merges``. An ``S = 1`` scan thus records exactly the
    counters of a serial loop.
    """
    plan.stream.passes += 1
    recorder = get_recorder()
    recorder.count("data_passes")
    if plan.n_shards > 1:
        recorder.count("shard_rows", plan.n_rows)
        if fit:
            recorder.count("shards_fitted", len(tasks))


def _fit_shard_worker(task: _FitTask) -> ShardFitState:
    """Per-chunk moment statistics plus planned reservoir row fetches.

    Generator-free: which rows to fetch was decided up front by the
    coordinator's acceptance plan, and the moment statistics are raw
    per-chunk triples — the Welford fold (not FP-associative) happens
    once, on the coordinator, in global chunk order.
    """
    from repro.density.kde import chunk_moment_stats

    state = ShardFitState()
    wanted = task.wanted
    for offset, chunk in task.view.chunks():
        count, mean, m2 = chunk_moment_stats(chunk)
        state.add_chunk(count, mean, m2)
        lo = int(np.searchsorted(wanted, offset))
        hi = int(np.searchsorted(wanted, offset + chunk.shape[0]))
        if hi > lo:
            picked = wanted[lo:hi]
            state.add_rows(picked, chunk[picked - offset])
    return state


def fit_shards(plan: ShardPlan, wanted_indices) -> ShardFitState:
    """Run one KDE fit scan and fold the shard partials.

    ``wanted_indices`` are the sorted absolute row indices the
    reservoir acceptance plan needs fetched; each shard receives only
    the slice that falls inside its row range.
    """
    wanted = np.asarray(wanted_indices, dtype=np.int64)
    tasks = []
    for view in plan.views():
        lo = int(np.searchsorted(wanted, view.spec.row_start))
        hi = int(np.searchsorted(wanted, view.spec.row_stop))
        tasks.append(_FitTask(view=view, wanted=wanted[lo:hi]))
    _begin_scan(plan, tasks, fit=True)
    partials = shard_map(_fit_shard_worker, tasks, phase=SHARD_FIT_PHASE)
    return merge_partials(partials)


@dataclass(frozen=True)
class _BoundsTask:
    """One shard of a bounding-box scan."""

    view: ShardView


@dataclass(frozen=True)
class _TreeCountTask:
    """One shard of a tree leaf-counting scan.

    Carries the coordinator-built forest structure (heap-order split
    attributes and thresholds) and its overlay routing tables (``None``
    above the cell cap) as plain arrays, so workers route rows without
    any generator or estimator state of their own.
    """

    view: ShardView
    features: np.ndarray
    thresholds: np.ndarray
    tables: object


def _bounds_shard_worker(task: _BoundsTask) -> BoundsShard:
    """Per-shard bounding box. Min/max is exact, so pre-reducing across
    the shard's chunks gives the same box for any shard count."""
    shard = BoundsShard()
    for _offset, chunk in task.view.chunks():
        shard.observe_chunk(chunk)
    return shard


def bounds_shards(plan: ShardPlan) -> BoundsShard:
    """Run one bounding-box scan and fold the shard partials."""
    tasks = [_BoundsTask(view=view) for view in plan.views()]
    _begin_scan(plan, tasks)
    partials = shard_map(_bounds_shard_worker, tasks, phase=SHARD_FIT_PHASE)
    return merge_partials(partials)


def _tree_count_worker(task: _TreeCountTask) -> TreeCountShard:
    """Per-shard integer leaf-occupancy counts (exactly mergeable)."""
    from repro.density.tree import forest_leaf_counts

    shard = TreeCountShard()
    for _offset, chunk in task.view.chunks():
        shard.add_counts(
            forest_leaf_counts(
                chunk, task.features, task.thresholds, task.tables
            ),
            chunk.shape[0],
        )
    return shard


def tree_count_shards(
    plan: ShardPlan, features, thresholds, tables=None
) -> TreeCountShard:
    """Run one tree-counting scan and fold the shard partials.

    ``features`` / ``thresholds`` are the coordinator-built forest
    (all randomness stayed there) and ``tables`` its
    :class:`~repro.density.tree.OverlayTables` (``None`` routes by
    descent); each shard counts its own row range and the integer
    tables fold exactly.
    """
    tasks = [
        _TreeCountTask(
            view=view,
            features=features,
            thresholds=thresholds,
            tables=tables,
        )
        for view in plan.views()
    ]
    _begin_scan(plan, tasks, fit=True)
    partials = shard_map(_tree_count_worker, tasks, phase=SHARD_FIT_PHASE)
    return merge_partials(partials)


def _eval_shard_worker(task: _EvalTask) -> NormalizerShard:
    """Evaluate one shard's chunks, keeping slices in stream order.

    Inline at ``S = 1``, where :func:`evaluate_chunks` fans out over
    the ambient worker count; inside a shard worker that count is 1.
    """
    shard = NormalizerShard(row_start=task.view.spec.row_start)
    for _offset, _chunk, values in evaluate_chunks(
        task.view.chunks(), task.evaluate
    ):
        shard.add_values(values)
    return shard


def eval_shards(plan: ShardPlan, evaluate) -> NormalizerShard:
    """Run one evaluation scan and fold the shard partials.

    ``evaluate`` maps a chunk to its per-row values (typically a bound
    ``estimator.evaluate``); the folded result reassembles the full
    per-point array in stream order.
    """
    tasks = [_EvalTask(view=view, evaluate=evaluate) for view in plan.views()]
    _begin_scan(plan, tasks)
    partials = shard_map(_eval_shard_worker, tasks, phase=SHARD_EVAL_PHASE)
    return merge_partials(partials)


def _gather_shard_worker(task: _GatherTask) -> GatherShard:
    """Collect one shard's masked rows, in stream order."""
    shard = GatherShard()
    row_start = task.view.spec.row_start
    for offset, chunk in task.view.chunks():
        local = task.mask[
            offset - row_start : offset - row_start + chunk.shape[0]
        ]
        shard.add_chunk(chunk, local)
    return shard


def sharded_gather(source, mask) -> np.ndarray:
    """Masked row gather in one scan, sharded over the ambient ``S``.

    The mask is precomputed by the coordinator (all randomness stays
    there); each shard slices its own window. Raises
    :class:`DataValidationError` when the scanned row count disagrees
    with the mask length.
    """
    plan = ShardPlan(source, resolve_shards())
    mask = np.asarray(mask)
    tasks = [
        _GatherTask(
            view=view,
            mask=np.ascontiguousarray(
                mask[view.spec.row_start : view.spec.row_stop]
            ),
        )
        for view in plan.views()
    ]
    _begin_scan(plan, tasks)
    partials = shard_map(_gather_shard_worker, tasks, phase=SHARD_GATHER_PHASE)
    folded = merge_partials(partials)
    if folded.seen != mask.shape[0]:
        raise DataValidationError(
            f"stream yielded {folded.seen} rows in the gather pass but the "
            f"selection mask covers {mask.shape[0]}; passes disagree "
            "on the surviving-row count."
        )
    if not folded.parts:
        return np.empty((0, source.n_dims))
    return np.vstack(folded.parts)
