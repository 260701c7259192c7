"""What the end-to-end benchmark runs, checks and traces.

``run.py`` imports this module in two places: the driver process, which
only writes the inputs, and each workload subprocess, which runs the
program on them. Importing it imports ``repro``; the subprocess times
that import as part of its set-up.

Every workload opens an :class:`~repro.utils.filestreams.NpyFileStream`
over an input file and runs one public entry point on it:

* ``fig5-kde`` -- ``ApproximateClusteringPipeline`` with its default
  sampler (the paper's recipe: a = 1, 1000 kernels, 1% sample);
* ``fig5-onepass-tree`` -- the same pipeline with a one-pass sampler over
  the tree density backend (a = -0.5, estimated normaliser);
* ``fig5-kde-sharded`` -- ``fig5-kde`` with ``REPRO_N_JOBS=2`` and
  ``REPRO_SHARDS=3`` in its environment;
* ``outliers-kde`` -- ``ApproximateOutlierDetector`` over a 1000-kernel
  KDE; no sampler, no clustering.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import ApproximateClusteringPipeline
from repro.clustering import CureClustering
from repro.core import DensityBiasedSampler, OnePassBiasedSampler, recommend_settings
from repro.datasets import HyperRectangle, make_fig5_dataset, make_outlier_dataset
from repro.density import KernelDensityEstimator, TreeDensityEstimator
from repro.evaluation import count_found_clusters
from repro.obs import Recorder, use_recorder
from repro.outliers import ApproximateOutlierDetector
from repro.parallel import use_n_jobs
from repro.sharding import use_shards
from repro.utils.filestreams import NpyFileStream

N_CLUSTERS = 10
OUTLIER_P = 5
N_KERNELS = 1000

#: Rows per stream chunk: a quarter of the stream's default, because the
#: inputs are sized for runs of about a second. The fig5 inputs then
#: span 4 and 7 chunks, enough for three shards on two threads.
CHUNK_ROWS = 16_384

#: Rows of the prefix file the untimed warm-up runs on.
PREFIX_ROWS = 20_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` picks the entry point: ``"kde-pipeline"``,
    ``"tree-pipeline"`` or ``"outliers"``. ``n_points`` is the
    generator's size argument at scale 1. ``n_jobs`` and ``shards`` are
    written to the subprocess's ``REPRO_N_JOBS`` / ``REPRO_SHARDS``, so
    every call of the run, traced or not, resolves the same shape.
    """

    name: str
    kind: str
    n_points: int
    n_jobs: int = 1
    shards: int = 1

    @property
    def dataset(self) -> str:
        return "outliers" if self.kind == "outliers" else "fig5"

    @property
    def is_pipeline(self) -> bool:
        return self.kind != "outliers"


WORKLOADS = {
    w.name: w
    for w in (
        # KDE evaluation dominates; CURE runs on ~550 sampled points.
        Workload("fig5-kde", "kde-pipeline", 50_000),
        # Tree fit and CURE on ~1100 points dominate; no KDE at all.
        Workload("fig5-onepass-tree", "tree-pipeline", 100_000),
        # The only workload through repro.parallel / repro.sharding.
        Workload("fig5-kde-sharded", "kde-pipeline", 50_000, n_jobs=2, shards=3),
        # Density screen, then an exact verify scan; no sampler, no CURE.
        Workload("outliers-kde", "outliers", 25_000),
    )
}

#: Per kind: (entry point declaring ``__n_passes__``, density estimator
#: type, passes outside the entry point's table). The pipeline's
#: full-data ``assign_to_clusters`` is one pass it does not declare.
_PASS_SOURCES = {
    "kde-pipeline": (DensityBiasedSampler, KernelDensityEstimator, 1),
    "tree-pipeline": (OnePassBiasedSampler, TreeDensityEstimator, 1),
    "outliers": (ApproximateOutlierDetector, KernelDensityEstimator, 0),
}


# -- inputs ------------------------------------------------------------------


def write_inputs(workload: Workload, seed: int, scale: float, directory: Path) -> dict:
    """Generate the workload's input from ``seed`` and write it as ``.npy``.

    Writes the full input, a prefix of at most :data:`PREFIX_ROWS` rows
    for the warm-up, and the ground truth the checks need. Returns the
    three paths as strings.
    """
    n_points = max(1, round(workload.n_points * scale))
    stem = directory / f"{workload.dataset}-{n_points}-{seed}"
    if workload.dataset == "fig5":
        data = make_fig5_dataset(n_points=n_points, random_state=seed)
        truth = {
            "clusters": [
                [shape.lows.tolist(), shape.highs.tolist()] for shape in data.clusters
            ]
        }
    else:
        data = make_outlier_dataset(
            n_points=n_points, n_outliers=50, random_state=seed
        )
        truth = {
            "radius": data.guaranteed_radius,
            "outliers": data.outlier_indices.tolist(),
        }
    files = {
        "input": f"{stem}.npy",
        "prefix": f"{stem}.prefix.npy",
        "truth": f"{stem}.truth.json",
    }
    np.save(files["input"], data.points)
    np.save(files["prefix"], data.points[:PREFIX_ROWS])
    Path(files["truth"]).write_text(json.dumps(truth))
    return files


def _open(path: str) -> NpyFileStream:
    return NpyFileStream(path, chunk_size=CHUNK_ROWS)


# -- entry points ------------------------------------------------------------


def _default_sampler(n_rows: int, seed: int) -> DensityBiasedSampler:
    """The sampler ``ApproximateClusteringPipeline`` builds when given none.

    Mirrors ``ApproximateClusteringPipeline._fit`` so the traced run can
    fit its estimator first; the traced-equals-untraced output check
    fails if the two ever drift apart.
    """
    sampler = recommend_settings("dense-clusters").make_sampler(
        n_rows, random_state=seed
    )
    floor = min(40 * N_CLUSTERS, n_rows // 2)
    sampler.sample_size = max(sampler.sample_size, floor)
    return sampler


def _tree_sampler(n_rows: int, seed: int) -> OnePassBiasedSampler:
    return OnePassBiasedSampler(
        sample_size=n_rows // 100,
        exponent=-0.5,
        estimator=TreeDensityEstimator(random_state=seed),
        random_state=seed,
    )


def _sampler(workload: Workload, n_rows: int, seed: int):
    if workload.kind == "tree-pipeline":
        return _tree_sampler(n_rows, seed)
    return _default_sampler(n_rows, seed)


def _detector(truth: dict, estimator) -> ApproximateOutlierDetector:
    return ApproximateOutlierDetector(
        k=truth["radius"], p=OUTLIER_P, estimator=estimator
    )


def _kde(seed: int) -> KernelDensityEstimator:
    return KernelDensityEstimator(n_kernels=N_KERNELS, random_state=seed)


def run_untraced(workload: Workload, path: str, seed: int, truth: dict):
    """Open the input and run the entry point as a user would.

    Returns ``(stream, result)``.
    """
    stream = _open(path)
    if workload.kind == "outliers":
        result = _detector(truth, _kde(seed)).detect(None, stream=stream)
    elif workload.kind == "tree-pipeline":
        result = ApproximateClusteringPipeline(
            N_CLUSTERS, sampler=_tree_sampler(len(stream), seed)
        ).fit(None, stream=stream)
    else:
        result = ApproximateClusteringPipeline(
            N_CLUSTERS, random_state=seed
        ).fit(None, stream=stream)
    return stream, result


# -- checks ------------------------------------------------------------------


def declared_passes(workload: Workload) -> int:
    """Dataset passes the entry point and its estimator declare."""
    entry, estimator, extra = _PASS_SOURCES[workload.kind]
    phases = entry.__n_passes__
    return (
        estimator.__n_passes__
        + sum(count for phase, count in phases.items() if phase != "fit_density")
        + extra
    )


def digest(workload: Workload, result) -> str:
    """SHA-256 of the output arrays the byte-identity checks compare."""
    h = hashlib.sha256()
    if workload.is_pipeline:
        h.update(result.labels.tobytes())
        h.update(result.sample.indices.tobytes())
    else:
        h.update(result.indices.tobytes())
        h.update(result.neighbor_counts.tobytes())
    return h.hexdigest()


def check(workload: Workload, stream, result, seed: int) -> list[str]:
    """Problems with one run's output; an empty list means it is correct."""
    problems = []
    n_rows = len(stream)
    if workload.is_pipeline:
        labels = result.labels
        if labels.shape != (n_rows,):
            problems.append(f"labels cover {labels.shape} rows, not {n_rows}")
        elif labels.min() < 0 or labels.max() >= N_CLUSTERS:
            problems.append(
                f"labels span [{labels.min()}, {labels.max()}], "
                f"outside [0, {N_CLUSTERS})"
            )
        # Var|S| = sum of p(1-p) over every row. A row enters S with
        # probability p, so the sum of (1 - p) over S has that same
        # expectation: an unbiased estimate from the sample alone.
        target = _sampler(workload, n_rows, seed).sample_size
        sigma = math.sqrt(float((1.0 - result.sample.probabilities).sum()))
        if abs(len(result.sample) - target) > 5 * sigma:
            problems.append(
                f"|S| = {len(result.sample)} is more than 5 sigma "
                f"({sigma:.1f}) from b = {target}"
            )
    elif (result.neighbor_counts > OUTLIER_P).any():
        problems.append(f"a reported outlier has more than p = {OUTLIER_P} neighbours")
    if stream.passes != declared_passes(workload):
        problems.append(
            f"{stream.passes} data passes; the entry point declares "
            f"{declared_passes(workload)}"
        )
    return problems


def quality(workload: Workload, result, truth: dict) -> dict:
    """Approximation quality of one output against the ground truth."""
    if workload.is_pipeline:
        shapes = [HyperRectangle(lo, hi) for lo, hi in truth["clusters"]]
        return {"clusters_found": count_found_clusters(result.clustering, shapes)}
    planted = set(truth["outliers"])
    found = planted & set(result.indices.tolist())
    return {"outlier_recall": len(found) / len(planted)}


# -- traced run ----------------------------------------------------------------


class _TimedEvaluate:
    """Stands in for a fitted estimator's public ``evaluate``.

    Records every call's start, end and row count. Calls arrive from the
    parallel backend's worker threads; ``list.append`` is atomic, so no
    lock is needed.
    """

    def __init__(self, evaluate) -> None:
        self._evaluate = evaluate
        self.calls: list[tuple[float, float, int]] = []

    def __call__(self, points):
        start = time.perf_counter()
        values = self._evaluate(points)
        self.calls.append((start, time.perf_counter(), int(values.shape[0])))
        return values


class _SpanSampler:
    """Sampler proxy: opens a ``core.sample`` span around ``sample``."""

    def __init__(self, sampler, recorder: Recorder) -> None:
        self._sampler = sampler
        self._recorder = recorder

    def sample(self, data=None, *, stream=None):
        with self._recorder.phase("core.sample"):
            return self._sampler.sample(data, stream=stream)


class _SpanCure:
    """Clusterer proxy: the pipeline's default CURE, in a span.

    Builds the clusterer the way ``ApproximateClusteringPipeline`` does
    when given none: ``n_clusters + 3`` clusters, capped by the sample.
    """

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder

    def fit(self, points):
        with self._recorder.phase("clustering.cure"):
            n_clusters = min(N_CLUSTERS + 3, len(points) - 1)
            return CureClustering(n_clusters=n_clusters).fit(points)


def _find_span(spans, name: str):
    stack = list(spans)
    while stack:
        span = stack.pop(0)
        if span.name == name:
            return span
        stack.extend(span.children)
    raise LookupError(f"the traced run recorded no {name!r} span")


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def run_traced(workload: Workload, path: str, seed: int, truth: dict):
    """One run with a span around each call into a layer.

    The estimator is fitted first by a public ``fit(stream=)`` call, its
    ``evaluate`` is wrapped on the fitted object, and the pipeline gets
    proxy sampler and clusterer objects. Returns ``(stream, result,
    recorder, evaluate)``.
    """
    recorder = Recorder()
    with use_recorder(recorder), recorder.phase("traced_run"):
        with recorder.phase("filestreams.open"):
            stream = _open(path)
        if workload.is_pipeline:
            sampler = _sampler(workload, len(stream), seed)
            estimator = sampler.estimator
        else:
            estimator = _kde(seed)
        with recorder.phase("density.fit"):
            estimator.fit(stream=stream)
        evaluate = estimator.evaluate = _TimedEvaluate(estimator.evaluate)
        with recorder.phase("entry"):
            if workload.is_pipeline:
                result = ApproximateClusteringPipeline(
                    N_CLUSTERS,
                    sampler=_SpanSampler(sampler, recorder),
                    clusterer=_SpanCure(recorder),
                ).fit(None, stream=stream)
            else:
                result = _detector(truth, estimator).detect(None, stream=stream)
    return stream, result, recorder, evaluate


def layer_metrics(
    workload: Workload,
    result,
    recorder: Recorder,
    evaluate: _TimedEvaluate,
    pass_s: float,
    n_rows: int,
    untraced_wall_s: float,
) -> dict:
    """The per-layer metrics of one traced run, by name."""
    top = _find_span(recorder.spans, "traced_run")
    opened = _find_span(recorder.spans, "filestreams.open")
    fit = _find_span(recorder.spans, "density.fit")
    entry = _find_span(recorder.spans, "entry")
    # The pipeline stages are the benchmark's proxy spans. The detector
    # has no stage objects to wrap, so its stages are the ``screen`` and
    # ``verify`` phases it records itself.
    if workload.is_pipeline:
        select = _find_span(entry.children, "core.sample")
        mine = _find_span(entry.children, "clustering.cure")
    else:
        select = _find_span(entry.children, "screen")
        mine = _find_span(entry.children, "verify")
    lo = recorder.t0 + select.start
    hi = lo + select.elapsed
    in_select = [
        (max(a, lo), min(b, hi)) for a, b, _ in evaluate.calls if b > lo and a < hi
    ]
    eval_s = sum(b - a for a, b, _ in evaluate.calls)
    eval_rows = sum(rows for _, _, rows in evaluate.calls)
    counters = recorder.counters
    return {
        "filestreams.open_s": opened.elapsed,
        "filestreams.pass_s": pass_s,
        "filestreams.rows_per_s": n_rows / pass_s,
        "density.fit_s": fit.elapsed,
        "density.evaluate_s": eval_s,
        "density.evaluate_calls": len(evaluate.calls),
        "density.evaluate_rows": eval_rows,
        "density.evaluate_rows_per_s": eval_rows / eval_s,
        "density.unit_evals": counters.get("kernel_evals", 0)
        + counters.get("tree_lookups", 0),
        "select.s": select.elapsed,
        "select.self_s": select.elapsed - _union_length(in_select),
        "select.rows": (
            len(result.sample) if workload.is_pipeline else result.n_candidates
        ),
        "mine.s": mine.elapsed,
        "mine.distance_evals": counters.get("distance_evals", 0),
        "entry.self_s": entry.elapsed - select.elapsed - mine.elapsed,
        "parallel.overlap": sum(b - a for a, b in in_select) / select.elapsed,
        "trace.coverage": (opened.elapsed + fit.elapsed + entry.elapsed)
        / top.elapsed,
        "trace.overhead": top.elapsed / untraced_wall_s - 1.0,
    }


#: Layer metrics that are time spent in one layer of the traced run;
#: the largest names the slowest layer.
SELF_TIMES = (
    "filestreams.open_s",
    "density.fit_s",
    "density.evaluate_s",
    "select.self_s",
    "mine.s",
    "entry.self_s",
)


def _bare_pass_seconds(path: str) -> float:
    """One ``iter_with_offsets`` pass that only reads the chunks."""
    stream = _open(path)
    start = time.perf_counter()
    for _ in stream.iter_with_offsets():
        pass
    return time.perf_counter() - start


# -- the workload subprocess ---------------------------------------------------


def setup_seconds(job: dict, import_s: float) -> float:
    """Set-up cost: the import, plus opening and warming up on the prefix."""
    workload, files = WORKLOADS[job["workload"]], job["files"]
    truth = json.loads(Path(files["truth"]).read_text())
    start = time.perf_counter()
    run_untraced(workload, files["prefix"], job["seed"], truth)
    return import_s + time.perf_counter() - start


class _Tally:
    """Runs attempted, runs failed and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems)


def measure(job: dict, import_s: float) -> dict:
    """Set up, run timed repetitions for ``job["seconds"]``, then check.

    Every run of the full input is checked, and a run that raises or
    fails a check counts as failed. After the timed runs come, untimed:
    the serial run of a sharded workload, and with ``job["trace"]`` one
    traced run.
    """
    workload, files, seed = WORKLOADS[job["workload"]], job["files"], job["seed"]
    truth = json.loads(Path(files["truth"]).read_text())
    out = {"setup_s": setup_seconds(job, import_s), "walls": [], "passes": []}
    tally = _Tally()
    digests: set[str] = set()
    first = None
    begin = time.perf_counter()
    while tally.attempted == 0 or time.perf_counter() - begin < job["seconds"]:
        gc.collect()
        start = time.perf_counter()
        try:
            stream, result = run_untraced(workload, files["input"], seed, truth)
            wall = time.perf_counter() - start
            problems = check(workload, stream, result, seed)
            digests.add(digest(workload, result))
        except Exception:  # a failed run is counted, not fatal
            problems = [traceback.format_exc(limit=4)]
        else:
            out["walls"].append(wall)
            out["passes"].append(stream.passes)
            first = first or (stream, result)
        tally.record(problems)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(digests) > 1:
        tally.errors.append(f"{len(digests)} different outputs across repetitions")
        tally.failed += 1

    if first is not None:
        stream, result = first
        out["rows"] = len(stream)
        out["quality"] = quality(workload, result, truth)
        reference = digest(workload, result)
        try:
            if workload.n_jobs > 1 or workload.shards > 1:
                tally.record(_check_serial(workload, files, seed, truth, reference))
            if job["trace"]:
                tally.record(_traced(workload, job, truth, reference, out))
        except Exception:  # a failed run is counted, not fatal
            tally.record([traceback.format_exc(limit=4)])
    out.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    return out


def _check_serial(workload, files, seed, truth, reference) -> list[str]:
    """The cross-shape contract: the serial run's output is identical."""
    with use_n_jobs(1), use_shards(1):
        _, serial = run_untraced(workload, files["input"], seed, truth)
    if digest(workload, serial) != reference:
        return ["the serial run's output differs from the sharded run's"]
    return []


def _traced(workload, job, truth, reference, out) -> list[str]:
    """Run once traced; store its layer metrics and spans in ``out``."""
    path = job["files"]["input"]
    pass_s = _bare_pass_seconds(path)
    gc.collect()
    stream, result, recorder, evaluate = run_traced(workload, path, job["seed"], truth)
    layers = layer_metrics(
        workload,
        result,
        recorder,
        evaluate,
        pass_s,
        out["rows"],
        float(np.median(out["walls"])),
    )
    out["per_layer"] = layers
    out["slowest_layer"] = max(SELF_TIMES, key=layers.__getitem__)
    out["spans"] = recorder.snapshot()["spans"]
    problems = []
    if digest(workload, result) != reference:
        problems.append("the traced run's output differs from the untraced run's")
    if stream.passes not in out["passes"]:
        problems.append(f"the traced run made {stream.passes} data passes")
    if layers["trace.coverage"] < 0.95:
        problems.append(f"trace coverage {layers['trace.coverage']:.3f} < 0.95")
    return problems
