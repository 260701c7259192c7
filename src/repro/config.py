"""Run configuration: the five settings that shape how a run executes.

The paper's sampler is defined by the data and ``(b, a, f)`` alone; the
settings here only choose *how* a run executes, and outputs are
byte-identical across all of them except the density family. They are
held in one frozen :class:`RunConfig`:

============================  ==========================  ==========
field                         environment variable        default
============================  ==========================  ==========
``n_jobs``                    ``REPRO_N_JOBS``            ``1``
``shards``                    ``REPRO_SHARDS``            ``1``
``density_backend``           ``REPRO_DENSITY_BACKEND``   ``"kde"``
``fault_policy``              (none)                      strict
``parallel_backend``          ``REPRO_PARALLEL_BACKEND``  ``"thread"``
============================  ==========================  ==========

:func:`current_config` resolves each field in one order: the innermost
:func:`use_config` override, then the environment variable, then the
default. :func:`use_config` installs overrides for a ``with`` block in
one context variable, so concurrent threads and tasks never observe
each other's settings; ``None`` leaves a field as it is. The parallel
harness ships the coordinator's config to every worker task (with
``n_jobs=1``, so parallelism never nests).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ParameterError
from repro.faults.policy import FAULT_POLICY_MODES, STRICT_POLICY, RowQuarantine

__all__ = [
    "BACKEND_ENV",
    "DENSITY_BACKEND_ENV",
    "N_JOBS_ENV",
    "SHARDS_ENV",
    "RunConfig",
    "check_density_backend",
    "check_fault_policy",
    "check_n_jobs",
    "check_parallel_backend",
    "check_shards",
    "current_config",
    "use_config",
]

N_JOBS_ENV = "REPRO_N_JOBS"
SHARDS_ENV = "REPRO_SHARDS"
DENSITY_BACKEND_ENV = "REPRO_DENSITY_BACKEND"
BACKEND_ENV = "REPRO_PARALLEL_BACKEND"

#: The keys of the density-backend and parallel-backend registries.
DENSITY_BACKENDS = ("kde", "tree")
PARALLEL_BACKENDS = ("process", "serial", "thread")


@dataclass(frozen=True)
class RunConfig:
    """One run's execution settings, every field resolved and validated.

    Attributes
    ----------
    n_jobs:
        Worker count ``>= 1`` for the scan runner's fan-outs.
    shards:
        Row-range shards ``>= 1`` per fit/eval/gather scan.
    density_backend:
        Family of every default-built density estimator.
    fault_policy:
        Invalid-row handling bound by every stream built in the run.
    parallel_backend:
        Execution backend kind for fan-outs with ``n_jobs > 1``.
    """

    n_jobs: int = 1
    shards: int = 1
    density_backend: str = "kde"
    fault_policy: RowQuarantine = STRICT_POLICY
    parallel_backend: str = "thread"


def check_n_jobs(n_jobs) -> int:
    """A worker count ``>= 1``; negatives count from the machine size."""
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        n_jobs = max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    if n_jobs == 0:
        raise ParameterError(
            "n_jobs must be >= 1, or negative to count from the machine "
            "size (-1 = all cores); got 0."
        )
    return n_jobs


def check_shards(shards) -> int:
    """A shard count ``>= 1``."""
    shards = int(shards)
    if shards < 1:
        raise ParameterError(f"shards must be >= 1; got {shards}.")
    return shards


def check_density_backend(backend) -> str:
    """A registered density-backend name (case-insensitive)."""
    name = str(backend).strip().lower()
    if name not in DENSITY_BACKENDS:
        raise ParameterError(
            f"unknown density backend {backend!r}; "
            f"choose from {list(DENSITY_BACKENDS)}."
        )
    return name


def check_fault_policy(policy) -> RowQuarantine:
    """A :class:`RowQuarantine`, or a mode name coerced into one."""
    if isinstance(policy, RowQuarantine):
        return policy
    if isinstance(policy, str):
        return RowQuarantine(policy)
    raise ParameterError(
        "fault_policy must be None, a mode name "
        f"{FAULT_POLICY_MODES}, or a RowQuarantine; "
        f"got {type(policy).__name__}."
    )


def check_parallel_backend(kind) -> str:
    """A parallel backend kind: serial, thread or process."""
    if kind not in PARALLEL_BACKENDS:
        raise ParameterError(
            f"unknown parallel backend {kind!r}; "
            f"choose from {list(PARALLEL_BACKENDS)}."
        )
    return kind


_CHECKS = {
    "n_jobs": check_n_jobs,
    "shards": check_shards,
    "density_backend": check_density_backend,
    "fault_policy": check_fault_policy,
    "parallel_backend": check_parallel_backend,
}

_ENV = {
    "n_jobs": N_JOBS_ENV,
    "shards": SHARDS_ENV,
    "density_backend": DENSITY_BACKEND_ENV,
    "parallel_backend": BACKEND_ENV,
}

_OVERRIDES: ContextVar[dict] = ContextVar("repro_run_config", default={})


def _from_env(field: str):
    """Field ``field`` from its environment variable, or ``None`` if unset.

    The one place the run settings' environment variables are read;
    errors name the variable.
    """
    var = _ENV.get(field)
    raw = os.environ.get(var, "").strip() if var else ""
    if not raw:
        return None
    try:
        return _CHECKS[field](raw)
    except ParameterError as exc:
        raise ParameterError(f"{var}: {exc}") from None
    except ValueError:
        raise ParameterError(f"{var} must be an integer; got {raw!r}.") from None


def current_config() -> RunConfig:
    """The ambient run configuration.

    Each field comes from the innermost :func:`use_config` override,
    else its environment variable, else the :class:`RunConfig` default.
    The environment is read on every call, and only for fields with no
    override.
    """
    overrides = _OVERRIDES.get()
    values = {}
    for field in _CHECKS:
        value = overrides.get(field)
        if value is None:
            value = _from_env(field)
        if value is not None:
            values[field] = value
    return RunConfig(**values)


@contextmanager
def use_config(**settings) -> Iterator[None]:
    """Override run settings for a ``with`` block.

    Values are validated eagerly. Everything inside the block that
    reads :func:`current_config` sees them; the prior overrides are
    restored on exit, also when the block raises.

    Parameters
    ----------
    **settings:
        Any :class:`RunConfig` field names; a ``None`` value leaves
        that field as it is.
    """
    unknown = sorted(set(settings) - set(_CHECKS))
    if unknown:
        raise ParameterError(
            f"unknown run setting(s) {unknown}; choose from {list(_CHECKS)}."
        )
    overrides = dict(_OVERRIDES.get())
    for field, value in settings.items():
        if value is not None:
            overrides[field] = _CHECKS[field](value)
    token = _OVERRIDES.set(overrides)
    try:
        yield
    finally:
        _OVERRIDES.reset(token)
