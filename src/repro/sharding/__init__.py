"""Sharded out-of-core fitting: plans, mergeable partials, fan-out.

Every fit, evaluation and gather dataset scan runs through this
package: it splits one pass into ``S`` contiguous row-range shards
(:class:`ShardPlan`), runs each shard (:func:`shard_map` and the scan
helpers :func:`fit_shards` / :func:`eval_shards` /
:func:`sharded_gather`) — inline when ``S = 1``, through the existing
:mod:`repro.parallel` backends otherwise — and folds the mergeable
shard partials with a deterministic left fold (:func:`merge_partials`).
It is also the one place density evaluation fans out
(:func:`evaluate_chunks`). Results are byte-identical for any shard
count and any worker count — see DESIGN.md §13 for the merge contracts
and the determinism argument.

The ambient shard count is the ``shards`` field of the run
configuration (:mod:`repro.config`): ``repro run --shards S``,
:func:`use_shards`, or the ``REPRO_SHARDS`` environment variable.
"""

from repro.sharding.partials import (
    BoundsShard,
    GatherShard,
    NormalizerShard,
    ShardFitState,
    TreeCountShard,
    merge_partials,
)
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
    bounds_shards,
    eval_shards,
    evaluate_chunks,
    fit_shards,
    shard_map,
    sharded_gather,
    tree_count_shards,
)

__all__ = [
    "SHARD_EVAL_PHASE",
    "SHARD_FIT_PHASE",
    "SHARD_GATHER_PHASE",
    "SHARDS_ENV",
    "BoundsShard",
    "GatherShard",
    "NormalizerShard",
    "ShardFitState",
    "ShardPlan",
    "ShardSpec",
    "ShardView",
    "TreeCountShard",
    "bounds_shards",
    "eval_shards",
    "evaluate_chunks",
    "fit_shards",
    "merge_partials",
    "resolve_shards",
    "shard_map",
    "sharded_gather",
    "tree_count_shards",
    "use_shards",
]
