"""Execute registered experiments."""

from __future__ import annotations

import sys
from contextlib import nullcontext

from repro.config import current_config, use_config
from repro.experiments.registry import get_experiment
from repro.experiments.reporting import ExperimentResult
from repro.obs import (
    Recorder,
    RunManifest,
    Stopwatch,
    get_recorder,
    trace_memory,
    use_recorder,
)

__all__ = [
    "run_experiment",
    "render_plots",
]


def run_experiment(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    verbose: bool = True,
    plot: bool = False,
    out=None,
    record: bool = True,
    metrics_out=None,
    n_jobs: int | None = None,
    shards: int | None = None,
    density_backend: str | None = None,
    fault_policy=None,
    profile: bool = False,
    memory: bool = False,
) -> ExperimentResult:
    """Run one experiment and (optionally) print its report.

    Parameters
    ----------
    name:
        Registry id (``fig4``, ``outliers``, ...).
    scale:
        Dataset-size multiplier relative to the paper's setup. ``1.0``
        is paper scale; the checked-in EXPERIMENTS.md numbers use the
        scale recorded there.
    seed:
        Base random seed; experiments derive all their generators from
        it, so a (name, scale, seed) triple is fully reproducible.
    verbose:
        Print the rendered report (and plots) to ``out``.
    plot:
        Additionally render each numeric sweep table as an ASCII line
        plot (the terminal version of the paper's figures).
    out:
        Writable stream for the report; defaults to ``sys.stdout``.
    record:
        Install a fresh :class:`repro.obs.Recorder` around the run and
        attach a :class:`repro.obs.RunManifest` (counters, timers, span
        tree) to the result; its ``params`` record every resolved
        :class:`repro.config.RunConfig` field, the fault policy as its
        mode name. When false, any ambient recorder still
        observes the run and no manifest is built.
    metrics_out:
        Manifest sink (path, stream, or callable — see
        :meth:`repro.obs.RunManifest.emit`); implies nothing when
        ``record`` is false.
    n_jobs, shards, density_backend, fault_policy:
        Run settings installed for the run with one
        :func:`repro.config.use_config` call; ``None`` leaves a
        setting's ambient value (override, environment variable, then
        default) in place. ``fault_policy`` takes a mode name
        (``"strict"``, ``"quarantine"``, ``"repair"``) or a
        :class:`repro.faults.RowQuarantine`. Results are byte-identical
        for any ``n_jobs`` and ``shards``; a sharded run only adds the
        ``shard*`` bookkeeping counters.
    profile:
        Run every recorder span under a scoped profiler (see
        :mod:`repro.obs.profiler`); per-function tables attach to the
        owning spans and an aggregated table lands in the manifest.
        Only meaningful with ``record``.
    memory:
        Enable :mod:`tracemalloc` for the run, so every span closes
        with a ``bytes_alloc`` attribute. Only meaningful with
        ``record``.
    """
    spec = get_experiment(name)
    stream = out if out is not None else sys.stdout
    if record:
        recorder = Recorder(profile=profile)
        context = use_recorder(recorder)
    else:
        recorder = get_recorder()
        context = nullcontext()
    memory_context = trace_memory() if (record and memory) else nullcontext()
    with context, use_config(
        n_jobs=n_jobs,
        shards=shards,
        density_backend=density_backend,
        fault_policy=fault_policy,
    ), memory_context, Stopwatch() as watch:
        config = current_config()
        with recorder.phase(f"run:{name}"):
            result = spec.run(scale=scale, seed=seed)
    if record:
        result.elapsed = recorder.spans[-1].elapsed
        params = {
            "scale": scale,
            "seed": seed,
            **vars(config),
            "fault_policy": config.fault_policy.mode,
        }
        result.manifest = RunManifest.from_recorder(
            recorder,
            name=name,
            seed=seed,
            params=params,
        )
        if metrics_out is not None:
            result.manifest.emit(metrics_out)
    else:
        result.elapsed = watch.elapsed
    result.notes.append(
        f"run settings: scale={scale}, seed={seed}, "
        f"wall time {result.elapsed:.1f}s"
    )
    if verbose:
        print(result.render(), file=stream)
        if plot:
            for chart in render_plots(result):
                print(chart, file=stream)
    return result


def render_plots(result: ExperimentResult) -> list[str]:
    """ASCII line plots for every table with a numeric sweep axis."""
    from repro.utils.ascii_plot import line_plot

    charts = []
    for table in result.tables:
        if len(table.rows) < 2:
            continue
        xs = table.column(table.headers[0])
        if not all(_plottable(x) for x in xs):
            continue
        series = {}
        for header in table.headers[1:]:
            values = table.column(header)
            if all(_plottable(v) for v in values):
                series[header] = values
        if not series or len(series) > 7:
            continue
        chart = line_plot(xs, series)
        charts.append(
            f"[plot] {table.title} (x = {table.headers[0]})\n{chart}"
        )
    return charts


def _plottable(value) -> bool:
    """Numeric and not a bool (booleans are verdicts, not series)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
