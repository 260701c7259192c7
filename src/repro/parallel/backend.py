"""Execution backends: serial, thread pool, process pool.

The paper's pipeline is dominated by embarrassingly parallel passes —
density evaluation over dataset chunks, the nested-loop detector's
outer block scan — and this module decides *how* those passes execute.
Callers never touch ``concurrent.futures`` directly (repro-audit rule
RL008 forbids it outside this package); they ask for a backend by
worker count and kind and hand it an ordered list of tasks.

The worker count and backend kind are the ``n_jobs`` and
``parallel_backend`` fields of :func:`repro.config.current_config`
(``repro run --n-jobs``, :func:`use_n_jobs`, ``REPRO_N_JOBS``; and
``REPRO_PARALLEL_BACKEND``). Negative counts are relative to the
machine size (``-1`` = all cores). The kind defaults to threads —
NumPy releases the GIL inside the kernels that dominate these passes,
and threads share the dataset with zero copying — and ``"process"``
suits workloads that are genuinely Python-bound.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from repro.config import (
    BACKEND_ENV,
    N_JOBS_ENV,
    check_n_jobs,
    current_config,
    use_config,
)

__all__ = [
    "BACKEND_ENV",
    "N_JOBS_ENV",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "get_backend",
    "resolve_n_jobs",
    "use_n_jobs",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Validate an explicit worker count (negatives count from the
    machine size, ``-1`` = all cores); ``None`` gives the ambient
    ``current_config().n_jobs``."""
    return current_config().n_jobs if n_jobs is None else check_n_jobs(n_jobs)


def use_n_jobs(n_jobs: int | None):
    """Install an ambient worker count: ``use_config(n_jobs=n_jobs)``."""
    return use_config(n_jobs=n_jobs)


class ExecutionBackend:
    """Maps a function over an ordered task list; results keep order."""

    kind: str = "abstract"
    n_jobs: int = 1

    def map(
        self, func: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:
        """Apply ``func`` to every item, returning results in order.

        Parameters
        ----------
        func:
            The task function. For the process backend it must be
            picklable (a module-level function, a ``functools.partial``
            of one, or a bound method of a picklable object).
        items:
            The ordered task inputs.
        """
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-caller execution: a plain loop, no worker machinery at all."""

    kind = "serial"
    n_jobs = 1

    def map(self, func, items):
        return [func(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution: shared memory, no pickling.

    The default parallel backend. NumPy's inner loops (the kernel-sum
    in density evaluation, the pairwise-distance blocks of the outlier
    detector) release the GIL, so threads scale on multicore machines
    while sharing the dataset for free.

    Parameters
    ----------
    n_jobs:
        Maximum number of worker threads.
    """

    kind = "thread"

    def __init__(self, n_jobs: int) -> None:
        self.n_jobs = int(n_jobs)

    def map(self, func, items):
        items = list(items)
        if len(items) <= 1:
            return [func(item) for item in items]
        workers = min(self.n_jobs, len(items))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, items))


class ProcessBackend(ExecutionBackend):
    """Process-pool execution: true CPU parallelism, pickled tasks.

    For passes that are Python-bound rather than NumPy-bound. Each task
    ships its function and arguments to the worker by pickling — for
    chunk maps that includes the chunk — so prefer the thread backend
    unless profiling says otherwise.

    Parameters
    ----------
    n_jobs:
        Maximum number of worker processes.
    """

    kind = "process"

    def __init__(self, n_jobs: int) -> None:
        self.n_jobs = int(n_jobs)

    def map(self, func, items):
        items = list(items)
        if len(items) <= 1:
            return [func(item) for item in items]
        workers = min(self.n_jobs, len(items))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, items))


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def get_backend(n_jobs: int | None = None) -> ExecutionBackend:
    """Pick the execution backend for a worker count.

    Parameters
    ----------
    n_jobs:
        Worker-count request, resolved via :func:`resolve_n_jobs`.
        A resolved count of ``1`` always yields the serial backend; the
        kind is ``current_config().parallel_backend``.
    """
    count = resolve_n_jobs(n_jobs)
    kind = current_config().parallel_backend
    if count == 1 or kind == "serial":
        return SerialBackend()
    return _BACKENDS[kind](count)
