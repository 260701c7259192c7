"""Runtime contract tests: scan budgets and memory bounds, observed.

The paper's efficiency argument has two halves: a sampler reads the
data a fixed number of times (a fit pass plus one or two more), and
its working memory is sublinear in ``n``. Every sampler, density
estimator and outlier detector states both halves as class attributes:

* ``__n_passes__`` — dataset scans of the entry point (``sample``,
  ``fit`` or ``detect``): an int, or a ``{phase: scans}`` dict keyed by
  the ``Recorder.phase`` spans the entry point opens;
* ``__space__`` — the peak working memory of the same call: an
  ``"O(...)"`` bound over ``1 < b < m < chunk < n`` (sample budget,
  summary size, one stream chunk, dataset), or a ``{phase: bound}``
  dict.

This module drives every class that declares or inherits them over the
grid of parameters that selects its code paths, and checks the
declarations against what the run does:

* **passes** — the ``data_passes`` delta of each phase span is at most
  the declared count, and no scan happens outside a declared phase.
  The observed counts are also pinned exactly, per grid cell, in
  :data:`PINNED_PASSES`;
* **memory** — with :mod:`tracemalloc` tracing, a test-only
  :class:`PeakRecorder` resets the peak at each phase entry. From
  ``n`` to ``8 n`` rows, every phase not declared ``O(n)`` may grow its
  peak by at most :data:`DATA_SHARE` of the data's own growth, plus in
  proportion to ``b`` when its bound names ``b``. The stream copies
  every chunk it yields, as a file-backed stream does, so a phase that
  keeps chunks is charged for them;
* **declarations** — the ``Dataset passes: N`` docstring line equals
  the sum of ``__n_passes__`` and the ``Memory: O(...)`` line equals
  the join of ``__space__``.

Toy classes at the bottom carry each defect class the checks exist
for, and each must be rejected; the correct toys must pass. A run
sees only the code paths it drives: DESIGN.md §11 lists the branches
the grid covers and the ones it does not.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import pkgutil
import re
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

# np.isin imports numpy.ma on its large-input path. Importing it here
# keeps that one-time import out of the first large run's peak.
import numpy.ma  # noqa: F401
import pytest

import repro
from repro.baselines import GridBiasedSampler
from repro.config import use_config
from repro.core import DensityBiasedSampler, OnePassBiasedSampler, UniformSampler
from repro.datasets import make_clustered_dataset
from repro.density import (
    DctDensityEstimator,
    DensityEstimator,
    GridDensityEstimator,
    KernelDensityEstimator,
    KnnDensityEstimator,
    TreeDensityEstimator,
    WaveletDensityEstimator,
    make_density_estimator,
)
from repro.obs import get_recorder
from repro.obs.recorder import Recorder, use_recorder
from repro.outliers import (
    ApproximateOutlierDetector,
    CellBasedOutlierDetector,
    IndexedOutlierDetector,
    NestedLoopOutlierDetector,
    OutlierDetector,
)
from repro.utils.streams import DataStream

#: Rows per stream chunk.
CHUNK_ROWS = 4096
#: Rows of the small run: eight chunks, so a parallel evaluation window
#: (``EVAL_WINDOW_CHUNKS``) is already full. The memory check's large
#: run has ``SCALE`` times as many.
N_SMALL = 8 * CHUNK_ROWS
SCALE = 8
#: From ``n`` to ``8 n`` rows, a phase not declared O(n) may grow its
#: peak by this share of the data's own growth in bytes. A phase that
#: keeps one float64 per row of the 2-d data grows by half of it.
DATA_SHARE = 0.25

#: Sample budget b of every sampler cell.
SAMPLE_SIZE = 100
#: DB(p, k) parameters of the detector cells, and the approximate
#: detector's sparsest-rows quota, held at the same count (its ``b``)
#: at both sizes.
RADIUS, P, QUOTA = 0.2, 5, 100

#: The phase in which a sampler or detector fits its estimator. Its
#: declared scans budget for the ``DensityEstimator`` default, so the
#: check charges it the estimator's own ``__n_passes__`` instead.
FIT_PHASE = "fit_density"

#: Growth classes a bound may name, smallest first; a bound joins to
#: its largest component, and a dict of bounds to the largest bound.
SIZE_ORDER = ("1", "b", "m", "chunk", "n")

_BOUND_RE = re.compile(r"^O\(\s*([^)]+?)\s*\)$")
_DOC_PASSES_RE = re.compile(r"Dataset passes:\s*(\d+)")
_DOC_MEMORY_RE = re.compile(r"Memory:\s*(O\([^)]*\))")


def parse_bound(text) -> tuple[str, ...] | None:
    """The components of ``"O(b + m)"``; ``None`` if not a bound."""
    match = _BOUND_RE.match(text.strip()) if isinstance(text, str) else None
    if match is None:
        return None
    parts = tuple(part.strip() for part in match.group(1).split("+"))
    return parts if all(part in SIZE_ORDER for part in parts) else None


def bound_rank(text: str) -> int:
    """Position of a valid bound's join in :data:`SIZE_ORDER`."""
    return max(SIZE_ORDER.index(part) for part in parse_bound(text))


def _phased(value, entry: str) -> dict:
    """A declaration as a ``{phase: value}`` dict; a plain value covers
    the whole entry call."""
    return dict(value) if isinstance(value, dict) else {entry: value}


def entry_method(cls) -> str:
    if issubclass(cls, DensityEstimator):
        return "fit"
    if issubclass(cls, OutlierDetector):
        return "detect"
    return "sample"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def declaration_problems(cls) -> list[str]:
    """What is missing, malformed or out of step with the docstring in
    ``cls``'s ``__n_passes__`` / ``__space__`` declarations."""
    name = cls.__name__
    passes = getattr(cls, "__n_passes__", None)
    space = getattr(cls, "__space__", None)
    doc = inspect.getdoc(cls) or ""
    problems = []
    if passes is None:
        problems.append(f"{name} declares no __n_passes__")
    elif not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0
        for v in _phased(passes, "").values()
    ):
        problems.append(
            f"{name}.__n_passes__ must be an int or a {{phase: int}} dict"
        )
    else:
        total = sum(_phased(passes, "").values())
        match = _DOC_PASSES_RE.search(doc)
        if match is None or int(match.group(1)) != total:
            problems.append(
                f'{name} docstring must say "Dataset passes: {total}", '
                "the sum of __n_passes__"
            )
    if space is None:
        problems.append(f"{name} declares no __space__")
    elif not all(parse_bound(v) for v in _phased(space, "").values()):
        problems.append(
            f'{name}.__space__ must be an "O(...)" bound over '
            f"{'/'.join(SIZE_ORDER)}, or a {{phase: bound}} dict"
        )
    else:
        joined = max(bound_rank(v) for v in _phased(space, "").values())
        match = _DOC_MEMORY_RE.search(doc)
        stated = parse_bound(match.group(1)) if match else None
        if stated is None or bound_rank(match.group(1)) != joined:
            problems.append(
                f'{name} docstring must state a "Memory: '
                f'O({SIZE_ORDER[joined]})" line, the join of __space__'
            )
    if isinstance(passes, dict) and isinstance(space, dict):
        if set(passes) != set(space):
            problems.append(
                f"{name} declares passes for phases {sorted(passes)} but "
                f"space for {sorted(space)}"
            )
    return problems


# ---------------------------------------------------------------------------
# Observation
# ---------------------------------------------------------------------------


class PeakRecorder(Recorder):
    """A recorder that stores each span's peak traced allocation.

    At every phase entry the tracemalloc peak is folded into the open
    spans and reset, so each span's ``attrs["peak_bytes"]`` is the
    highest traced memory inside it, above what was live when it
    opened, nested spans included.
    """

    def __init__(self) -> None:
        super().__init__()
        self._open: list[list[int]] = []

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for entry in self._open:
            entry[1] = max(entry[1], peak)

    @contextmanager
    def phase(self, name: str, **attrs):
        self._fold_peak()
        tracemalloc.reset_peak()
        with super().phase(name, **attrs) as span:
            entry = [tracemalloc.get_traced_memory()[0], 0]
            self._open.append(entry)
            try:
                yield span
            finally:
                self._fold_peak()
                self._open.pop()
                span.attrs["peak_bytes"] = entry[1] - entry[0]


class ReadingStream(DataStream):
    """An in-memory stream that allocates like a file-backed one: every
    chunk it yields and every materialisation is a fresh copy."""

    def iter_chunk_range(self, lo: int, hi: int):
        for offset, chunk in super().iter_chunk_range(lo, hi):
            yield offset, chunk.copy()

    def materialize(self) -> np.ndarray:
        return super().materialize().copy()


@lru_cache(maxsize=None)
def _points(n: int) -> np.ndarray:
    data = make_clustered_dataset(
        n_points=n, n_clusters=10, noise_fraction=0.1, random_state=0
    )
    return data.points[:n]  # noise comes on top; rows arrive shuffled


@dataclass
class Run:
    """One entry-point call: scans and peak bytes per span (the entry
    span and the phases it opened), and the run's ``b``."""

    entry: str
    passes: dict
    peaks: dict
    b: int


def observe(obj, n: int, shards: int) -> Run:
    """Call ``obj``'s entry point on ``n`` rows under a traced
    :class:`PeakRecorder`, inside one span named after the entry.

    ``b`` is a detector's candidate count, else the sample budget.
    """
    entry = entry_method(type(obj))
    stream = ReadingStream(_points(n), chunk_size=CHUNK_ROWS)
    recorder = PeakRecorder()
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        with use_config(shards=shards), use_recorder(recorder):
            with recorder.phase(entry):
                result = getattr(obj, entry)(None, stream=stream)
    finally:
        if not tracing:
            tracemalloc.stop()
    (top,) = recorder.spans
    spans = {child.name: child for child in top.children} | {entry: top}
    return Run(
        entry=entry,
        passes={k: s.counters.get("data_passes", 0) for k, s in spans.items()},
        peaks={k: s.attrs.get("peak_bytes", 0) for k, s in spans.items()},
        b=getattr(result, "n_candidates", None) or getattr(obj, "sample_size", 1),
    )


def _budgets(obj) -> tuple[dict, dict]:
    """Declared ``({phase: scans}, {phase: bound})`` of ``obj``, with
    the fit phase charged its estimator's own scan count."""
    cls = type(obj)
    entry = entry_method(cls)
    passes = _phased(cls.__n_passes__, entry)
    estimator = getattr(obj, "estimator", None)
    if isinstance(estimator, DensityEstimator) and FIT_PHASE in passes:
        passes[FIT_PHASE] += (
            type(estimator).__n_passes__ - DensityEstimator.__n_passes__
        )
    return passes, _phased(cls.__space__, entry)


def _pass_problems(name: str, run: Run, budget: dict, n: int) -> list[str]:
    """Phases over their scan budget, and scans outside every declared
    phase (when the budget is per phase)."""
    problems = [
        f"{name}: phase {phase!r} made {run.passes.get(phase, 0)} scans "
        f"on {n} rows, over its budget of {limit}"
        for phase, limit in budget.items()
        if run.passes.get(phase, 0) > limit
    ]
    outside = run.passes[run.entry] - sum(run.passes.get(p, 0) for p in budget)
    if run.entry not in budget and outside:
        problems.append(
            f"{name}: {outside} scan(s) on {n} rows ran outside the "
            f"declared phases {sorted(budget)}"
        )
    return problems


def check_contract(
    make, shards: int = 1, memory: bool = True
) -> tuple[list[str], dict]:
    """``(violations, scans per declared phase)`` of one grid cell.

    ``make(n)`` builds a fresh instance for an ``n``-row run. The small
    run checks the scan budget. With ``memory``, when some phase is not
    declared O(n), a second small run and an ``8 n`` run check the
    budget again and the growth of each such phase's peak.
    """
    obj = make(N_SMALL)
    problems = declaration_problems(type(obj))
    if problems:
        return problems, {}
    name = type(obj).__name__
    budget, space = _budgets(obj)
    small = observe(obj, N_SMALL, shards)
    problems = _pass_problems(name, small, budget, N_SMALL)
    flat = [p for p, bound in space.items() if "n" not in parse_bound(bound)]
    if memory and flat:
        base = observe(make(N_SMALL), N_SMALL, shards)
        n_large = SCALE * N_SMALL
        large = observe(make(n_large), n_large, shards)
        problems += _pass_problems(name, large, budget, n_large)
        data_growth = _points(n_large).nbytes - _points(N_SMALL).nbytes
        for phase in flat:
            before, after = base.peaks.get(phase, 0), large.peaks.get(phase, 0)
            b_growth = 1.0
            if "b" in parse_bound(space[phase]):
                b_growth = max(1.0, large.b / base.b)
            if after > b_growth * before + DATA_SHARE * data_growth:
                problems.append(
                    f"{name}: phase {phase!r}, declared {space[phase]}, "
                    f"peaked at {before / 1e6:.2f} MB on {N_SMALL} rows "
                    f"and {after / 1e6:.2f} MB on {n_large}"
                )
    phases = dict.fromkeys([small.entry, *budget])
    return problems, {p: small.passes.get(p, 0) for p in phases}


# ---------------------------------------------------------------------------
# Discovery and the grid
# ---------------------------------------------------------------------------


def _takes_stream(method) -> bool:
    try:
        return "stream" in inspect.signature(method).parameters
    except (TypeError, ValueError):
        return False


@lru_cache(maxsize=None)
def contract_classes() -> tuple[type, ...]:
    """Every concrete library class with a scan contract.

    Imports every ``repro`` module, then walks the classes they define
    and all of their subclasses. A class qualifies when it is a density
    estimator or an outlier detector, when its ``sample`` method takes
    a ``stream`` (the samplers share no base), or when it declares
    ``__n_passes__`` or ``__space__``.
    """
    stack = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            module = importlib.import_module(info.name)
            stack.extend(v for v in vars(module).values() if inspect.isclass(v))
    seen, found = set(), set()
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(type.__subclasses__(cls))
        if not cls.__module__.startswith("repro.") or inspect.isabstract(cls):
            continue
        if (
            issubclass(cls, (DensityEstimator, OutlierDetector))
            or _takes_stream(getattr(cls, "sample", None))
            or hasattr(cls, "__n_passes__")
            or hasattr(cls, "__space__")
        ):
            found.add(cls)
    return tuple(sorted(found, key=lambda c: c.__qualname__))


BACKENDS = ("kde", "tree")
EXPONENTS = (-0.5, 1.0)
SHARDS = (1, 3)


def _estimator(backend):
    # A 256-kernel KDE runs the same code as the default 1000 kernels;
    # it halves the time of the KDE cells.
    return make_density_estimator(backend, budget=256, random_state=0)


#: Each class's grid: the axes that select its code paths (every class
#: also runs at each of :data:`SHARDS`), and a builder taking the
#: backend, the exponent and the row count.
GRID = {
    DensityBiasedSampler: (
        ("backend", "exponent"),
        lambda be, a, n: DensityBiasedSampler(
            SAMPLE_SIZE, a, _estimator(be), random_state=0
        ),
    ),
    OnePassBiasedSampler: (
        ("backend", "exponent"),
        lambda be, a, n: OnePassBiasedSampler(
            SAMPLE_SIZE, a, _estimator(be), random_state=0
        ),
    ),
    GridBiasedSampler: (
        ("exponent",),
        lambda be, a, n: GridBiasedSampler(SAMPLE_SIZE, a, random_state=0),
    ),
    UniformSampler: (
        (),
        lambda be, a, n: UniformSampler(SAMPLE_SIZE, random_state=0),
    ),
    KernelDensityEstimator: (
        (),
        lambda be, a, n: KernelDensityEstimator(random_state=0),
    ),
    TreeDensityEstimator: ((), lambda be, a, n: TreeDensityEstimator(random_state=0)),
    GridDensityEstimator: ((), lambda be, a, n: GridDensityEstimator()),
    KnnDensityEstimator: ((), lambda be, a, n: KnnDensityEstimator(random_state=0)),
    DctDensityEstimator: ((), lambda be, a, n: DctDensityEstimator()),
    WaveletDensityEstimator: ((), lambda be, a, n: WaveletDensityEstimator()),
    ApproximateOutlierDetector: (
        ("backend",),
        lambda be, a, n: ApproximateOutlierDetector(
            RADIUS, P, estimator=_estimator(be), candidate_quantile=QUOTA / n
        ),
    ),
    IndexedOutlierDetector: ((), lambda be, a, n: IndexedOutlierDetector(RADIUS, P)),
    NestedLoopOutlierDetector: (
        (),
        lambda be, a, n: NestedLoopOutlierDetector(RADIUS, P),
    ),
    CellBasedOutlierDetector: (
        (),
        lambda be, a, n: CellBasedOutlierDetector(RADIUS, P),
    ),
}


def _cells():
    for cls, (axes, build) in GRID.items():
        backends = BACKENDS if "backend" in axes else (None,)
        exponents = EXPONENTS if "exponent" in axes else (None,)
        for be, a, shards in product(backends, exponents, SHARDS):
            label = "-".join(
                [cls.__name__]
                + ([be] if be else [])
                + ([f"a{a:+g}"] if a is not None else [])
                + [f"S{shards}"]
            )
            yield pytest.param(cls, be, a, shards, build, id=label)


#: Observed scans per phase, per class and backend: the same for every
#: exponent and shard count. With the tree the fit phase reads twice
#: (bounds, then counts); the one-pass sampler reuses the KDE's centres
#: as its pilot and skips the normaliser scan.
PINNED_PASSES = {
    ("DensityBiasedSampler", "kde"): {
        "sample": 3, "fit_density": 1, "eval_density": 1, "draw": 1
    },
    ("DensityBiasedSampler", "tree"): {
        "sample": 4, "fit_density": 2, "eval_density": 1, "draw": 1
    },
    ("OnePassBiasedSampler", "kde"): {
        "sample": 2, "fit_density": 1, "estimate_normalizer": 0, "draw": 1
    },
    ("OnePassBiasedSampler", "tree"): {
        "sample": 4, "fit_density": 2, "estimate_normalizer": 1, "draw": 1
    },
    ("GridBiasedSampler", None): {"sample": 3},
    ("UniformSampler", None): {"sample": 1, "draw": 1},
    ("KernelDensityEstimator", None): {"fit": 1},
    ("TreeDensityEstimator", None): {"fit": 2},
    ("GridDensityEstimator", None): {"fit": 2},
    ("KnnDensityEstimator", None): {"fit": 1},
    ("DctDensityEstimator", None): {"fit": 2},
    ("WaveletDensityEstimator", None): {"fit": 2},
    ("ApproximateOutlierDetector", "kde"): {
        "detect": 3, "fit_density": 1, "screen": 1, "verify": 1
    },
    ("ApproximateOutlierDetector", "tree"): {
        "detect": 4, "fit_density": 2, "screen": 1, "verify": 1
    },
    ("IndexedOutlierDetector", None): {"detect": 1},
    ("NestedLoopOutlierDetector", None): {"detect": 1},
    ("CellBasedOutlierDetector", None): {"detect": 1},
}


class TestLibraryContracts:
    def test_every_contract_class_is_in_the_grid(self):
        assert set(contract_classes()) == set(GRID)
        assert {name for name, _ in PINNED_PASSES} == {
            cls.__name__ for cls in GRID
        }

    @pytest.mark.parametrize("cls", contract_classes(), ids=lambda c: c.__name__)
    def test_declarations_match_docstrings(self, cls):
        assert declaration_problems(cls) == []

    @pytest.mark.parametrize("cls,backend,exponent,shards,build", _cells())
    def test_cell_honours_its_contract(self, cls, backend, exponent, shards, build):
        # Memory is measured at the paper's default a = 1 only: a < 0
        # adds per-chunk floor temporaries and nothing that scales.
        problems, passes = check_contract(
            lambda n: build(backend, exponent, n), shards, exponent != -0.5
        )
        assert problems == []
        assert passes == PINNED_PASSES[cls.__name__, backend]


# ---------------------------------------------------------------------------
# Toys: each defect class must be rejected, each correct toy accepted
# ---------------------------------------------------------------------------


def _drain(stream):
    for _chunk in stream:
        pass


def _per_chunk(chunks):
    for offset, chunk in chunks:
        yield offset, chunk


class OneScan:
    """Keeps every chunk of one scan.

    Dataset passes: 1

    Memory: O(n)
    """

    __n_passes__ = 1
    __space__ = "O(n)"

    def sample(self, data=None, *, stream=None):
        return [chunk for chunk in stream]


class DoubleScan:
    """Dataset passes: 1

    Memory: O(1)
    """

    __n_passes__ = 1
    __space__ = "O(1)"

    def sample(self, data=None, *, stream=None):
        for _chunk in stream:
            pass
        for _chunk in stream:
            pass


class HelperDoubleScan(DoubleScan):
    """Dataset passes: 1

    Memory: O(1)
    """

    def sample(self, data=None, *, stream=None):
        _drain(stream)
        _drain(stream)


class LoopScan(DoubleScan):
    """Rescans the stream once per chunk.

    Dataset passes: 1

    Memory: O(1)
    """

    def sample(self, data=None, *, stream=None):
        for _size in stream.chunk_sizes():
            _drain(stream)


class EitherBranch(DoubleScan):
    """One scan down either branch.

    Dataset passes: 1

    Memory: O(1)
    """

    def __init__(self, fast: bool = True) -> None:
        self.fast = fast

    def sample(self, data=None, *, stream=None):
        if self.fast:
            _drain(stream)
        else:
            for _chunk in stream:
                pass


class Overclaiming:
    """Dataset passes: 1

    Memory: O(b)
    """

    __n_passes__ = 1
    __space__ = "O(b)"

    def sample(self, data=None, *, stream=None):
        return stream.materialize()


class Phased:
    """Dataset passes: 2

    Memory: O(n)
    """

    __n_passes__ = {"fit": 1, "draw": 1}
    __space__ = {"fit": "O(m)", "draw": "O(n)"}

    def sample(self, data=None, *, stream=None):
        recorder = get_recorder()
        with recorder.phase("fit"):
            table = np.zeros(64)
            for chunk in stream:
                table[: chunk.shape[1]] += chunk.sum(axis=0)
        with recorder.phase("draw"):
            return stream.materialize()


class PhaseMismatch(Phased):
    """Dataset passes: 2

    Memory: O(m)
    """

    __space__ = {"fit": "O(m)", "draw": "O(m)"}


class MaskedBernoulli:
    """Keeps each row with probability b / n: an expected-b sample.

    Dataset passes: 1

    Memory: O(b + chunk)
    """

    __n_passes__ = 1
    __space__ = "O(b + chunk)"

    def sample(self, data=None, *, stream=None):
        rng = np.random.default_rng(0)
        parts = []
        for chunk in stream:
            keep = rng.random(chunk.shape[0]) < SAMPLE_SIZE / len(stream)
            parts.append(chunk[keep])
        return np.vstack(parts)


class Hoarder:
    """Dataset passes: 1

    Memory: O(chunk)
    """

    __n_passes__ = 1
    __space__ = "O(chunk)"

    def sample(self, data=None, *, stream=None):
        rows = []
        for _, chunk in _per_chunk(stream.iter_with_offsets()):
            rows.append(chunk)
        return rows


class MeanEstimator(DensityEstimator):
    """Inherits the base contract: one scan in summary-sized memory.

    Dataset passes: 1

    Memory: O(m)
    """

    def fit(self, data=None, *, stream=None):
        total = np.zeros(stream.n_dims)
        for chunk in stream:
            total += chunk.sum(axis=0)
        self.mean_ = total / len(stream)
        self.n_points_, self.n_dims_ = len(stream), stream.n_dims
        return self

    def _evaluate(self, points):
        return np.full(points.shape[0], float(self.n_points_))


class Undeclared:
    """Dataset passes: 1"""

    def sample(self, data=None, *, stream=None):
        _drain(stream)


class NoSpace(Undeclared):
    """Dataset passes: 1"""

    __n_passes__ = 1


class Malformed(OneScan):
    """Dataset passes: 1

    Memory: O(n)
    """

    __space__ = "whatever fits"


class PassesDrift(OneScan):
    """Dataset passes: 2

    Memory: O(n)
    """


class NoMemoryLine(OneScan):
    """Keeps every chunk, with no memory line.

    Dataset passes: 1
    """


class MemoryDrift(OneScan):
    """Dataset passes: 1

    Memory: O(b)
    """


class PhaseKeysDiffer(Phased):
    """Dataset passes: 2

    Memory: O(n)
    """

    __space__ = {"fit": "O(m)", "gather": "O(n)"}


DEFECTS = [
    (DoubleScan, "phase 'sample' made 2 scans"),
    (HelperDoubleScan, "phase 'sample' made 2 scans"),
    (LoopScan, "phase 'sample' made 8 scans"),
    (Overclaiming, "phase 'sample', declared O(b)"),
    (PhaseMismatch, "phase 'draw', declared O(m)"),
    (Hoarder, "phase 'sample', declared O(chunk)"),
    (Undeclared, "declares no __n_passes__"),
    (NoSpace, "declares no __space__"),
    (Malformed, 'must be an "O(...)" bound'),
    (PassesDrift, 'must say "Dataset passes: 1"'),
    (NoMemoryLine, 'must state a "Memory: O(n)" line'),
    (MemoryDrift, 'must state a "Memory: O(n)" line'),
    (PhaseKeysDiffer, "but space for ['fit', 'gather']"),
]


class TestToyContracts:
    @pytest.mark.parametrize(
        "toy,expected", [pytest.param(*d, id=d[0].__name__) for d in DEFECTS]
    )
    def test_defect_rejected(self, toy, expected):
        problems, _ = check_contract(lambda n: toy())
        assert any(expected in problem for problem in problems), problems

    @pytest.mark.parametrize(
        "make",
        [
            OneScan,
            Phased,
            MaskedBernoulli,
            EitherBranch,
            lambda: EitherBranch(fast=False),
            MeanEstimator,
            lambda: DensityBiasedSampler(SAMPLE_SIZE, 1.0, MeanEstimator()),
        ],
        ids=[
            "OneScan",
            "Phased",
            "MaskedBernoulli",
            "EitherBranch-fast",
            "EitherBranch-slow",
            "MeanEstimator",
            "DensityBiasedSampler-MeanEstimator",
        ],
    )
    def test_correct_toy_accepted(self, make):
        problems, _ = check_contract(lambda n: make())
        assert problems == []
