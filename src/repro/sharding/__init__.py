"""Sharded out-of-core scans: plans and the one scan primitive.

Every fit, evaluation and gather dataset scan runs through this
package: it splits one pass into ``S`` contiguous row-range shards
(:class:`ShardPlan`) and maps a per-chunk function over them with
:func:`shard_map` — inline when ``S = 1``, through the existing
:mod:`repro.parallel` backends otherwise — returning the per-chunk
results in stream order for the caller to fold on the coordinator
(:func:`sharded_gather` is the gather scan built on it). It is also
the one place density evaluation fans out (:func:`evaluate_chunks`).
Results are byte-identical for any shard count and any worker count —
see DESIGN.md §13 for the fold contract and the determinism argument.

The ambient shard count is the ``shards`` field of the run
configuration (:mod:`repro.config`): ``repro run --shards S``,
:func:`use_shards`, or the ``REPRO_SHARDS`` environment variable.
"""

from repro.sharding.plan import (
    SHARDS_ENV,
    ShardPlan,
    ShardSpec,
    ShardView,
    resolve_shards,
    use_shards,
)
from repro.sharding.runner import (
    SHARD_EVAL_PHASE,
    SHARD_FIT_PHASE,
    SHARD_GATHER_PHASE,
    evaluate_chunks,
    shard_map,
    sharded_gather,
)

__all__ = [
    "SHARD_EVAL_PHASE",
    "SHARD_FIT_PHASE",
    "SHARD_GATHER_PHASE",
    "SHARDS_ENV",
    "ShardPlan",
    "ShardSpec",
    "ShardView",
    "evaluate_chunks",
    "resolve_shards",
    "shard_map",
    "sharded_gather",
    "use_shards",
]
