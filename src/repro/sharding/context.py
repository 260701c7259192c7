"""Ambient shard-count resolution.

Mirrors the worker-count knob of :mod:`repro.parallel.backend`: one
``--shards`` flag (or ``REPRO_SHARDS`` environment variable) reaches
every fit/eval/gather hot path without threading a parameter through
each constructor. Resolution order:

1. an explicit ``shards`` argument wins;
2. otherwise the ambient default installed by :func:`use_shards`
   (what ``repro run --shards`` sets);
3. otherwise the ``REPRO_SHARDS`` environment variable;
4. otherwise ``1`` — the unsharded path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.exceptions import ParameterError

__all__ = [
    "SHARDS_ENV",
    "resolve_shards",
    "use_shards",
]

#: Environment variable overriding the default shard count.
SHARDS_ENV = "REPRO_SHARDS"

_DEFAULT_SHARDS: ContextVar[int | None] = ContextVar(
    "repro_sharding_default_shards", default=None
)


def resolve_shards(shards: int | None = None) -> int:
    """Resolve a ``shards`` request to a concrete shard count ``>= 1``.

    Parameters
    ----------
    shards:
        Explicit request, or ``None`` to defer to the ambient default
        (:func:`use_shards`), then the ``REPRO_SHARDS`` environment
        variable, then ``1``.
    """
    if shards is None:
        shards = _DEFAULT_SHARDS.get()
    if shards is None:
        raw = os.environ.get(SHARDS_ENV, "").strip()
        if raw:
            try:
                shards = int(raw)
            except ValueError:
                raise ParameterError(
                    f"{SHARDS_ENV} must be an integer; got {raw!r}."
                ) from None
        else:
            shards = 1
    shards = int(shards)
    if shards < 1:
        raise ParameterError(f"shards must be >= 1; got {shards}.")
    return shards


@contextmanager
def use_shards(shards: int | None) -> Iterator[None]:
    """Install ``shards`` as the ambient default for a ``with`` block.

    Everything inside the block that resolves ``shards=None`` — the
    estimator fit scans, the density-evaluation pass and the gather
    passes — picks this value up. Built on a context
    variable, so concurrent threads and tasks never observe each
    other's defaults. Results are byte-identical for any value (see
    :mod:`repro.sharding`).
    """
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ParameterError(f"shards must be >= 1; got {shards}.")
    token = _DEFAULT_SHARDS.set(shards)
    try:
        yield
    finally:
        _DEFAULT_SHARDS.reset(token)
