"""repro.parallel: the execution-backend layer for hot dataset passes.

The paper's pitch is speed — fit a density estimator in one pass, then
mine a small sample — and this package makes the per-pass work scale
with the machine. It has two layers:

* :mod:`repro.parallel.backend` — serial / thread / process execution
  backends, picked from the run configuration's ``n_jobs`` and
  ``parallel_backend`` fields (:mod:`repro.config`; default serial,
  threads when parallel).
* :mod:`repro.parallel.map` — :func:`parallel_map_chunks`, the
  order-preserving chunk fan-out that merges every worker's
  :class:`repro.obs.Recorder` counters back into the caller's ambient
  recorder.

Callers fan out through :mod:`repro.sharding`: every dataset scan maps
its per-chunk function over a shard plan with
:func:`~repro.sharding.shard_map`, which dispatches one task per shard
here when ``S > 1``, and every per-chunk density evaluation goes
through :func:`~repro.sharding.evaluate_chunks`, the one place it is
parallelised; estimators and samplers take no ``n_jobs``.
Only the nested-loop outlier detector, which maps blocks of an
in-memory array, calls :func:`parallel_map_chunks` with its own.

The determinism contract: results are byte-identical for any
``n_jobs``. Parallel passes only run deterministic per-chunk work
(density evaluation, block distance counts); every random draw stays on
the caller's single main-process generator, consumed in stream order.

Direct use of ``multiprocessing`` / ``concurrent.futures`` elsewhere in
the library is forbidden by repro-audit rule RL008 — new parallel code
goes through this package so counters merge, determinism holds and
every task runs under the coordinator's run configuration.
"""

from repro.parallel.backend import (
    BACKEND_ENV,
    N_JOBS_ENV,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
    resolve_n_jobs,
    use_n_jobs,
)
from repro.parallel.map import parallel_map_chunks
from repro.parallel.shm import (
    SHM_DIR_ENV,
    SharedArray,
    SharedChunks,
    resolve_chunk,
    shm_dir,
)

__all__ = [
    "BACKEND_ENV",
    "N_JOBS_ENV",
    "SHM_DIR_ENV",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "SharedArray",
    "SharedChunks",
    "ThreadBackend",
    "get_backend",
    "parallel_map_chunks",
    "resolve_chunk",
    "resolve_n_jobs",
    "shm_dir",
    "use_n_jobs",
]
