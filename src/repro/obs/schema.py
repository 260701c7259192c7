"""Metric registries: the closed vocabularies of counters and histograms.

Run manifests are only comparable across machines, versions and CI runs
if the set of metric names is closed — a typo'd or ad-hoc name would
silently fork the metrics vocabulary. ``COUNTER_SCHEMA`` and
``HISTOGRAM_SCHEMA`` are those closed sets and the single sources of
truth for:

* the live :class:`~repro.obs.Recorder` — ``count`` and ``observe``
  raise :class:`~repro.exceptions.ParameterError` for a name that is
  not a key here, so an unregistered name fails the first test that
  reaches its call site; ``tests/test_obs.py`` runs three small entry
  points and requires them to fire exactly the registered names, so a
  metric nothing records any more fails too;
* the README counter/histogram tables — regenerated by
  ``python tools/gen_counter_docs.py`` (``--check`` in CI fails on
  drift).

Adding a metric therefore takes four steps: record it at the call
site, register it here, regenerate the README tables, and make sure an
entry point of that test reaches it. Histogram
bucket bounds live in the registry (not at call sites) because
histograms merge across :mod:`repro.parallel` workers bucket-by-bucket,
which is only sound when every recorder of a metric uses identical
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COUNTER_SCHEMA",
    "CounterSpec",
    "HISTOGRAM_SCHEMA",
    "HistogramSpec",
    "counter_names",
    "histogram_names",
]


@dataclass(frozen=True)
class CounterSpec:
    """Schema entry for one observability counter.

    Attributes
    ----------
    name:
        The counter's key in ``Recorder.counters`` and manifests.
    incremented_by:
        The subsystem(s) that bump it (shown in the README table).
    meaning:
        What one unit of the counter measures.
    """

    name: str
    incremented_by: str
    meaning: str


#: All registered counters, keyed by name; ``Recorder.count`` accepts
#: only these.
COUNTER_SCHEMA: dict[str, CounterSpec] = {
    "data_passes": CounterSpec(
        name="data_passes",
        incremented_by="`DataStream` iteration / `materialize`",
        meaning="sequential passes over the source dataset",
    ),
    "points_seen": CounterSpec(
        name="points_seen",
        incremented_by="`DataStream` chunks",
        meaning="rows streamed (≈ passes × n)",
    ),
    "kernel_evals": CounterSpec(
        name="kernel_evals",
        incremented_by="KDE evaluation, `Kernel.__call__`",
        meaning="kernel profile evaluations (points × centers)",
    ),
    "screen_rows_pruned": CounterSpec(
        name="screen_rows_pruned",
        incremented_by="`ApproximateOutlierDetector` volume screen",
        meaning="rows whose density lower bound cleared them, never evaluated",
    ),
    "distance_evals": CounterSpec(
        name="distance_evals",
        incremented_by="CURE merges, `count_within` (outlier verify and oracles)",
        meaning="pairwise point distances computed (pairs a cell-pruned count skips are not counted)",
    ),
    "sample_size": CounterSpec(
        name="sample_size",
        incremented_by="every sampler's draw",
        meaning="points actually drawn into the sample",
    ),
    "heap_pushes": CounterSpec(
        name="heap_pushes",
        incremented_by="`IndexedMinHeap`",
        meaning="priority-queue insertions",
    ),
    "rows_quarantined": CounterSpec(
        name="rows_quarantined",
        incremented_by="`RowQuarantine.apply` (quarantine policy), when a stream is built",
        meaning="rows removed by the fault policy before sampling, once per stream",
    ),
    "rows_repaired": CounterSpec(
        name="rows_repaired",
        incremented_by="`RowQuarantine.apply` (repair policy), when a stream is built",
        meaning="rows kept after imputing invalid cells, once per stream",
    ),
    "cells_repaired": CounterSpec(
        name="cells_repaired",
        incremented_by="`RowQuarantine.apply` (repair policy), when a stream is built",
        meaning="individual cells imputed with the chunk mean, once per stream",
    ),
    "reservoir_accepts": CounterSpec(
        name="reservoir_accepts",
        incremented_by="`ReservoirSampler.extend`, `KernelDensityEstimator.fit` (its acceptance plan)",
        meaning="rows accepted into a reservoir (fills + replacements)",
    ),
    "tree_nodes_built": CounterSpec(
        name="tree_nodes_built",
        incremented_by="`TreeDensityEstimator._build_trees`",
        meaning="internal split nodes drawn (trees × (2^depth - 1))",
    ),
    "tree_lookups": CounterSpec(
        name="tree_lookups",
        incremented_by="`TreeDensityEstimator._evaluate`",
        meaning="evaluation routes performed (query rows × trees)",
    ),
    "shards_fitted": CounterSpec(
        name="shards_fitted",
        incremented_by="`repro.sharding.shard_map` (`fit=True` scans)",
        meaning="shard tasks dispatched by sharded fit scans",
    ),
    "shard_merges": CounterSpec(
        name="shard_merges",
        incremented_by="`repro.sharding.shard_map`",
        meaning="shard results joined after the first, per sharded scan",
    ),
    "shard_rows": CounterSpec(
        name="shard_rows",
        incremented_by="`repro.sharding.shard_map`",
        meaning="rows covered by sharded scans (fit, eval, gather)",
    ),
}


def counter_names() -> tuple[str, ...]:
    """Registered counter names, in registry order."""
    return tuple(COUNTER_SCHEMA)


@dataclass(frozen=True)
class HistogramSpec:
    """Schema entry for one observability histogram.

    Attributes
    ----------
    name:
        The histogram's key in ``Recorder.histograms`` and manifests.
    buckets:
        Strictly increasing upper bucket bounds; an implicit overflow
        bucket catches larger values. Fixed here so histograms of the
        same metric merge bucket-by-bucket across workers.
    unit:
        Unit of one observation (shown in the README table).
    observed_by:
        The subsystem(s) that record it (shown in the README table).
    meaning:
        What one observation of the histogram measures.
    """

    name: str
    buckets: tuple[float, ...]
    unit: str
    observed_by: str
    meaning: str


#: All registered histograms, keyed by name; ``Recorder.observe``
#: accepts only these, and takes its bucket bounds from here.
HISTOGRAM_SCHEMA: dict[str, HistogramSpec] = {
    "kde_eval_chunk_seconds": HistogramSpec(
        name="kde_eval_chunk_seconds",
        buckets=(
            0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
            0.25, 0.5, 1.0, 2.5, 5.0,
        ),
        unit="seconds",
        observed_by="`KernelDensityEstimator._evaluate_block`",
        meaning="wall time of one chunked kernel-sum evaluation block",
    ),
    "kde_eval_rows_per_second": HistogramSpec(
        name="kde_eval_rows_per_second",
        buckets=(
            1e3, 5e3, 1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8,
        ),
        unit="rows/s",
        observed_by="`KernelDensityEstimator._evaluate_block`",
        meaning="query-row throughput of one evaluation block",
    ),
    "stream_chunk_rows": HistogramSpec(
        name="stream_chunk_rows",
        buckets=(
            64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
        ),
        unit="rows",
        observed_by="`DataStream` iteration",
        meaning="rows delivered per stream chunk (deterministic)",
    ),
    "quarantine_batch_rows": HistogramSpec(
        name="quarantine_batch_rows",
        buckets=(
            1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
            10000.0,
        ),
        unit="rows",
        observed_by="`RowQuarantine.apply` (quarantine mode), when a stream is built",
        meaning="invalid rows dropped per chunk, once per stream (deterministic)",
    ),
    "draw_batch_rows": HistogramSpec(
        name="draw_batch_rows",
        buckets=(
            1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
            10000.0,
        ),
        unit="rows",
        observed_by="`OnePassBiasedSampler.sample` (draw scan)",
        meaning="rows accepted per stream chunk (deterministic)",
    ),
}


def histogram_names() -> tuple[str, ...]:
    """Registered histogram names, in registry order."""
    return tuple(HISTOGRAM_SCHEMA)
