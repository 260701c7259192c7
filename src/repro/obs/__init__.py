"""repro.obs: metrics, tracing, profiling and run manifests.

Zero-dependency observability for the sampling->mining pipeline:

* :class:`Recorder` — named counters (``data_passes``, ``points_seen``,
  ``kernel_evals``, ``distance_evals``, ``sample_size``,
  ``heap_pushes``, ...), fixed-bucket :class:`Histogram` metrics
  (per-chunk KDE latency, quarantine batch sizes) and a nested tree of
  timed phase spans with per-span attributes; opt-in per-span
  profiling via ``Recorder(profile=True)``.
* :func:`get_recorder` / :func:`use_recorder` / :func:`recording` —
  context-variable plumbing installing a recorder for a block of code;
  the default is a no-op recorder, so instrumentation is free when
  observability is off.
* :class:`RunManifest` — a JSON-lines-serialisable record of one run
  (seed, parameters, versions, platform, all recorded metrics),
  versioned and loadable across schema generations.
* Exporter and diff — :func:`to_chrome_trace` (Perfetto-loadable
  trace-event JSON) and :func:`diff_manifests` for phase-by-phase
  regression checks; both back the ``repro trace`` CLI.

Enable from code::

    from repro.obs import recording

    with recording() as rec:
        ApproximateClusteringPipeline(n_clusters=5).fit(data)
    print(rec.counters["data_passes"])        # 4

or from the CLI: ``repro run fig4 --trace --metrics-out metrics.jsonl``.
"""

from repro.obs.export_chrome import (
    CHROME_TRACE_SCHEMA,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.histogram import Histogram
from repro.obs.manifest import (
    SCHEMA_VERSION,
    RunManifest,
    collect_environment,
    load_manifests,
)
from repro.obs.profiler import merge_profiles, profile_summary, trace_memory
from repro.obs.recorder import (
    NULL_RECORDER,
    Recorder,
    Span,
    Stopwatch,
    format_spans,
    get_recorder,
    recording,
    use_recorder,
)
from repro.obs.schema import (
    COUNTER_SCHEMA,
    HISTOGRAM_SCHEMA,
    CounterSpec,
    HistogramSpec,
    counter_names,
    histogram_names,
)
from repro.obs.trace_diff import DiffResult, diff_manifests, span_coverage

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "COUNTER_SCHEMA",
    "CounterSpec",
    "DiffResult",
    "HISTOGRAM_SCHEMA",
    "Histogram",
    "HistogramSpec",
    "NULL_RECORDER",
    "Recorder",
    "RunManifest",
    "SCHEMA_VERSION",
    "Span",
    "Stopwatch",
    "collect_environment",
    "counter_names",
    "diff_manifests",
    "format_spans",
    "get_recorder",
    "histogram_names",
    "load_manifests",
    "merge_profiles",
    "profile_summary",
    "recording",
    "span_coverage",
    "to_chrome_trace",
    "trace_memory",
    "use_recorder",
    "validate_chrome_trace",
    "write_chrome_trace",
]
