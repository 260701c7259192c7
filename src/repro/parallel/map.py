"""Order-preserving parallel chunk map with observability aggregation.

:func:`parallel_map_chunks` is the one primitive the library's hot
passes build on: apply a deterministic function to an ordered list of
dataset chunks, fan the work out to an execution backend, and return
the results *in submission order* so downstream concatenation
reproduces the serial stream layout byte for byte.

Two contracts make parallelism invisible to the rest of the system:

* **Determinism** — tasks must be pure functions of their chunk (all
  random draws stay on the caller's single generator), so the merged
  output is identical for every ``n_jobs``.
* **Observability** — each task runs under a private live
  :class:`repro.obs.Recorder`, even when the caller is not tracing, so
  a metric name counted in a worker meets the same registry check as
  on the coordinator; its counter deltas (``kernel_evals``,
  ``distance_evals``, ...) are merged back into the caller's ambient
  recorder after the fan-in, inside whatever phase span is currently
  open. When the caller is actively tracing, each task's span tree
  (wrapped in a ``worker_task`` span tagged with its worker slot and
  chunk index) and its histograms ship back too, adopted in submission
  order — so the merged trace, like the counters, is deterministic for
  any worker count. Manifests therefore report the same counters no
  matter how many workers ran, and worker counts are never lost to the
  thread-local context.

Every task runs under the coordinator's run configuration
(:func:`repro.config.current_config`), captured at fan-out with
``n_jobs=1``: context variables reach neither pool threads nor worker
processes on their own, so the harness ships the config, and a task
resolves the same shard count, density backend and fault policy it
would serially. A task that would itself fan out (a shard worker's
:func:`~repro.sharding.evaluate_chunks`) stays serial inside a worker —
parallelism never nests by accident.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from typing import Callable, Iterable, Iterator, TypeVar

from repro.config import RunConfig, current_config, use_config
from repro.obs import Recorder, get_recorder, use_recorder
from repro.parallel.backend import get_backend
from repro.parallel.shm import SharedChunks, resolve_chunk

__all__ = ["parallel_map_chunks"]

_T = TypeVar("_T")
_R = TypeVar("_R")


@contextmanager
def _worker_context(config: RunConfig, recorder: Recorder) -> Iterator[None]:
    """Install the worker-local ambient context; always restore priors.

    One task's context must never outlive the task: under the serial
    and thread backends the installing thread is (or shares state with)
    the coordinator, and under the process backend the worker process
    is reused for the next task. Both installers below are token-based
    (``ContextVar.set`` returning a reset token, reset in a
    ``finally``), so the prior recorder and run configuration are
    restored even when the task raises — the exact coordinator-visible
    state leak RA009 flags for non-harness code.
    """
    with use_config(**vars(config)), use_recorder(recorder):
        yield


def _run_task(
    func: Callable[[_T], _R],
    config: RunConfig,
    collect: bool,
    n_workers: int,
    indexed_item: tuple[int, _T],
) -> tuple[_R, dict]:
    """Run one task under a fresh recorder; return (result, telemetry).

    The telemetry dict always carries the worker recorder's counters;
    when the caller is tracing (``collect``), it additionally carries
    the task's span tree — wrapped in a ``worker_task`` span whose
    ``worker`` attribute is the task's deterministic worker slot
    (``index % n_workers``) — and its serialised histograms.
    """
    index, item = indexed_item
    # Shared-memory handles (process backend) map their segment here;
    # plain chunks pass through untouched.
    item = resolve_chunk(item)
    recorder = Recorder()
    with _worker_context(config, recorder):
        if collect:
            with recorder.phase(
                "worker_task", worker=index % max(1, n_workers), chunk=index
            ):
                result = func(item)
        else:
            result = func(item)
    state: dict = {"counters": recorder.counters}
    if collect:
        state["spans"] = [span.to_dict() for span in recorder.spans]
        state["histograms"] = {
            name: hist.to_dict()
            for name, hist in recorder.histograms.items()
        }
    return result, state


def parallel_map_chunks(
    func: Callable[[_T], _R],
    chunks: Iterable[_T],
    *,
    n_jobs: int | None = None,
) -> list[_R]:
    """Apply ``func`` to every chunk, in parallel, preserving order.

    Parameters
    ----------
    func:
        Deterministic task function. It must not draw from a shared
        random generator (workers may run in any order); with the
        process backend it must also be picklable.
    chunks:
        Ordered task inputs (typically dataset chunks or block
        offsets). The result list matches this order exactly.
    n_jobs:
        Worker-count request; ``None`` for the ambient
        ``current_config().n_jobs``. The backend kind is always the
        ambient ``parallel_backend`` (see
        :func:`repro.parallel.get_backend`).

    Returns
    -------
    list
        ``[func(chunk) for chunk in chunks]``, computed by the chosen
        backend, with every worker's recorder counters merged into the
        caller's ambient recorder.
    """
    ambient = get_recorder()
    engine = get_backend(n_jobs)
    # With the process backend, park large ndarray chunks in shared
    # memory so workers map them instead of unpickling a copy; the
    # segments are unlinked as soon as the fan-in completes. Thread and
    # serial backends already share address space, so sharing is
    # skipped (`enabled=False` hands back the original chunks).
    with SharedChunks(chunks, enabled=engine.kind == "process") as shared:
        pairs = engine.map(
            partial(
                _run_task,
                func,
                replace(current_config(), n_jobs=1),
                ambient.enabled,
                engine.n_jobs,
            ),
            list(enumerate(shared.items)),
        )
    merged: dict[str, float] = {}
    for _, state in pairs:
        for name, value in state["counters"].items():
            merged[name] = merged.get(name, 0) + value
    for name in sorted(merged):
        ambient.count(name, merged[name])
    # Adopt spans and fold histograms in submission order, so the merged
    # trace is identical for any worker count and backend.
    for _, state in pairs:
        if "spans" in state:
            ambient.adopt_spans(state["spans"])
        if "histograms" in state:
            ambient.merge_histograms(state["histograms"])
    return [result for result, _ in pairs]
