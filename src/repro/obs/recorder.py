"""Counters, histograms, timers and phase spans for the pipeline.

The paper's efficiency claims are resource claims — one dataset pass to
fit the estimator, an expected sample size ``b``, runtime competitive
with uniform sampling — and this module turns those resources into
observable quantities. A :class:`Recorder` holds named **counters**
(``data_passes``, ``points_seen``, ``kernel_evals``, ``distance_evals``,
``sample_size``, ``heap_pushes``, ...), fixed-bucket **histograms**
(per-chunk KDE latency, quarantine batch sizes — see
:data:`repro.obs.schema.HISTOGRAM_SCHEMA`) and a tree of timed **spans**
opened with :meth:`Recorder.phase`; library hot paths report into
whatever recorder is currently installed via :func:`get_recorder`.

Spans are hierarchical: each carries a parent link, a start timestamp
relative to the recorder's creation, per-span counter deltas and free
``attrs`` (chunk index, rows processed, worker id, bytes allocated when
:mod:`tracemalloc` is tracing). The tree is what the Chrome-trace
exporter renders and what the profiler hangs per-function attribution
on. Worker recorders produced by :mod:`repro.parallel` ship their spans
and histograms back to the caller, where :meth:`Recorder.adopt_spans`
and :meth:`Recorder.merge_histograms` fold them in deterministically —
the same discipline counters have always followed.

Observability is off by default: the ambient recorder is a no-op
singleton (:data:`NULL_RECORDER`) whose ``count``/``observe``/``phase``
do nothing, so instrumentation costs one context-variable read per call
site when disabled. Install a live recorder for a block of code with
:func:`use_recorder` (or the :func:`recording` shorthand); the context
variable keeps concurrently running recorders isolated per thread and
per async task.

A live recorder only accepts names from the closed registries in
:mod:`repro.obs.schema`: ``count`` and ``observe`` raise
:class:`~repro.exceptions.ParameterError` for a name missing from
``COUNTER_SCHEMA`` or ``HISTOGRAM_SCHEMA``. Worker tasks always record
into a live recorder (see :mod:`repro.parallel`), so names counted in
workers are checked too, even when the caller is not tracing.

Counter values are pure functions of the algorithm and its seed, so two
runs with identical parameters record identical counters — timers and
latency histograms, of course, are wall-clock and vary.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator

from repro.exceptions import ParameterError
from repro.obs.histogram import Histogram
from repro.obs.schema import COUNTER_SCHEMA, HISTOGRAM_SCHEMA

__all__ = [
    "NULL_RECORDER",
    "Recorder",
    "Span",
    "Stopwatch",
    "format_spans",
    "get_recorder",
    "recording",
    "use_recorder",
]


class Span:
    """One timed phase: name, timing, counter deltas, attrs, children.

    Spans nest — entering ``phase("draw")`` inside ``phase("sample")``
    attaches the draw span as a child of the sample span and points its
    ``parent`` back at it — and each span records the *delta* of every
    counter that changed while it was open, so per-phase costs can be
    read directly off the tree. ``start`` is seconds since the owning
    recorder was created (wall-clock, not deterministic); ``attrs``
    carries free-form annotations set with :meth:`set` (chunk index,
    rows processed, worker id, ``bytes_alloc`` when tracemalloc is
    tracing, the profiler's per-function table).
    """

    __slots__ = (
        "name",
        "start",
        "elapsed",
        "counters",
        "attrs",
        "children",
        "parent",
        "_t0",
        "_enter",
        "_mem0",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.start: float = 0.0
        self.elapsed: float = 0.0
        self.counters: dict[str, float] = {}
        self.attrs: dict = {}
        self.children: list[Span] = []
        self.parent: Span | None = None
        self._t0: float = 0.0
        self._enter: dict[str, float] = {}
        self._mem0: int | None = None

    def set(self, **attrs) -> "Span":
        """Attach free-form attributes to this span (chainable)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        """JSON-serialisable nested representation."""
        return {
            "name": self.name,
            "start_s": self.start,
            "elapsed_s": self.elapsed,
            "counters": dict(self.counters),
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output.

        Tolerant of v1 span dictionaries (no ``start_s``/``attrs``),
        so old manifests keep loading.

        Parameters
        ----------
        data:
            Dictionary in the :meth:`to_dict` schema.
        """
        span = cls(str(data["name"]))
        span.start = float(data.get("start_s", 0.0))
        span.elapsed = float(data.get("elapsed_s", 0.0))
        span.counters = dict(data.get("counters", {}))
        span.attrs = dict(data.get("attrs", {}))
        for child in data.get("children", []):
            node = cls.from_dict(child)
            node.parent = span
            span.children.append(node)
        return span


class Recorder:
    """Collects counters, histograms and a nested span tree for one run.

    Parameters
    ----------
    profile:
        When true, every span runs under a scoped :mod:`cProfile`
        profiler (stack-switched, so a span's profile covers its *own*
        code and not its children's) and closes with a per-function
        attribution table in ``attrs["profile"]``. Opt-in: profiling
        costs real overhead and its timings are wall-clock.

    Examples
    --------
    >>> rec = Recorder()
    >>> with rec.phase("fit_density"):
    ...     rec.count("kernel_evals", 1000)
    >>> rec.counters["kernel_evals"]
    1000
    >>> rec.spans[0].name
    'fit_density'
    """

    enabled: bool = True

    def __init__(self, profile: bool = False) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.spans: list[Span] = []
        self.profile = bool(profile)
        self.t0 = time.perf_counter()
        self._stack: list[Span] = []
        self._profilers: list = []

    # -- counters ------------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use).

        Raises :class:`~repro.exceptions.ParameterError` when ``name``
        is not a ``COUNTER_SCHEMA`` key.
        """
        if name not in COUNTER_SCHEMA:
            raise _unregistered(name, "counter", "COUNTER_SCHEMA")
        self.counters[name] = self.counters.get(name, 0) + n

    # -- histograms ----------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``.

        Bucket bounds come from the name's ``HISTOGRAM_SCHEMA`` entry.

        Parameters
        ----------
        name:
            Histogram name — a ``HISTOGRAM_SCHEMA`` key.
        value:
            The observed value, in the metric's registered unit.

        Raises
        ------
        ParameterError
            When ``name`` is not registered in ``HISTOGRAM_SCHEMA``.
        """
        hist = self.histograms.get(name)
        if hist is None:
            spec = HISTOGRAM_SCHEMA.get(name)
            if spec is None:
                raise _unregistered(name, "histogram", "HISTOGRAM_SCHEMA")
            hist = self.histograms[name] = Histogram(name, spec.buckets)
        hist.observe(value)

    def merge_histograms(self, histograms: dict) -> None:
        """Fold serialised worker histograms into this recorder.

        Parameters
        ----------
        histograms:
            ``{name: Histogram.to_dict()}`` as shipped back by a
            :mod:`repro.parallel` worker. Merged in sorted-name order
            so the fold is deterministic.
        """
        for name in sorted(histograms):
            data = histograms[name]
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = Histogram.from_dict(data, name)
            else:
                mine.merge(data)

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, **attrs) -> Iterator[Span]:
        """Open a timed span; nested calls build a tree.

        Parameters
        ----------
        name:
            Span name (phases aggregate by name in ``timers``).
        **attrs:
            Initial attributes, as for :meth:`Span.set`.
        """
        span = Span(name)
        if attrs:
            span.attrs.update(attrs)
        span._enter = dict(self.counters)
        if tracemalloc.is_tracing():
            span._mem0 = tracemalloc.get_traced_memory()[0]
        self._stack.append(span)
        if self.profile:
            self._push_profiler()
        span.start = time.perf_counter() - self.t0
        span._t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.elapsed = time.perf_counter() - span._t0
            if self.profile:
                self._pop_profiler(span)
            span.counters = {
                key: value - span._enter.get(key, 0)
                for key, value in self.counters.items()
                if value != span._enter.get(key, 0)
            }
            span._enter = {}
            if span._mem0 is not None and tracemalloc.is_tracing():
                span.attrs["bytes_alloc"] = (
                    tracemalloc.get_traced_memory()[0] - span._mem0
                )
            span._mem0 = None
            self._stack.pop()
            if self._stack:
                span.parent = self._stack[-1]
                self._stack[-1].children.append(span)
            else:
                self.spans.append(span)

    def adopt_spans(self, span_dicts: Iterable[dict]) -> None:
        """Attach serialised worker span trees under the open span.

        Called by the :mod:`repro.parallel` harness at fan-in, in task
        submission order, so the adopted forest is deterministic for
        any worker count (timestamps inside adopted spans stay relative
        to the *worker's* recorder; the exporters lay worker tracks out
        separately).

        Parameters
        ----------
        span_dicts:
            ``Span.to_dict()`` trees recorded by a worker recorder.
        """
        for data in span_dicts:
            span = Span.from_dict(data)
            if self._stack:
                span.parent = self._stack[-1]
                self._stack[-1].children.append(span)
            else:
                self.spans.append(span)

    @property
    def current_phase(self) -> str | None:
        """Name of the innermost open span (``None`` outside any phase).

        Lets error paths report *where* in the pipeline a failure
        happened — e.g. a strict fault policy naming the dataset pass
        whose chunk carried the bad rows.
        """
        return self._stack[-1].name if self._stack else None

    @property
    def timers(self) -> dict[str, float]:
        """Total elapsed seconds per span name, aggregated over the tree."""
        totals: dict[str, float] = {}
        stack = list(self.spans)
        while stack:
            span = stack.pop()
            totals[span.name] = totals.get(span.name, 0.0) + span.elapsed
            stack.extend(span.children)
        return totals

    # -- profiling -----------------------------------------------------------

    def _push_profiler(self) -> None:
        """Pause the enclosing span's profiler and start a fresh one."""
        import cProfile

        if self._profilers:
            self._profilers[-1].disable()
        prof = cProfile.Profile()
        self._profilers.append(prof)
        prof.enable()

    def _pop_profiler(self, span: Span) -> None:
        """Stop the span's profiler, attach its table, resume the parent."""
        from repro.obs.profiler import profile_summary

        prof = self._profilers.pop()
        prof.disable()
        table = profile_summary(prof)
        if table:
            span.attrs["profile"] = table
        if self._profilers:
            self._profilers[-1].enable()

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters, histograms, timers and the span tree as plain dicts."""
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
            "timers": self.timers,
            "spans": [span.to_dict() for span in self.spans],
        }


def _unregistered(name: str, kind: str, registry: str) -> ParameterError:
    """The error a live recorder raises for a name outside its registry."""
    return ParameterError(
        f"{kind} {name!r} is not registered in {registry} "
        f"(repro.obs.schema); register it there before recording it."
    )


class _NullSpan:
    """Reusable no-op span returned by the null recorder.

    Mirrors the attribute surface instrumented code touches
    (:meth:`set`, ``elapsed``, ``attrs``) so call sites never branch on
    whether observability is enabled.
    """

    __slots__ = ()

    #: Disabled spans never accumulate time.
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullRecorder(Recorder):
    """Disabled recorder: every operation is a no-op.

    The module-level default, so instrumented library code pays one
    attribute call and nothing else when observability is off. It never
    accumulates state — ``counters``, ``histograms`` and ``spans`` stay
    empty.
    """

    enabled = False

    def count(self, name: str, n: float = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def merge_histograms(self, histograms: dict) -> None:
        return None

    def adopt_spans(self, span_dicts: Iterable[dict]) -> None:
        return None

    def phase(self, name: str, **attrs) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def snapshot(self) -> dict:
        return {"counters": {}, "histograms": {}, "timers": {}, "spans": []}


#: The shared disabled recorder installed by default.
NULL_RECORDER = NullRecorder()

_RECORDER: ContextVar[Recorder] = ContextVar(
    "repro_obs_recorder", default=NULL_RECORDER
)


def get_recorder() -> Recorder:
    """The recorder currently installed for this thread/task.

    Returns :data:`NULL_RECORDER` (all operations no-ops) unless a
    recorder was installed with :func:`use_recorder` or
    :func:`recording`.
    """
    return _RECORDER.get()


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the ambient recorder for a ``with`` block.

    Built on a context variable, so concurrent threads and async tasks
    that install their own recorders never observe each other's counts.

    Parameters
    ----------
    recorder:
        The recorder library code should report into inside the block.
    """
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)


@contextmanager
def recording(profile: bool = False) -> Iterator[Recorder]:
    """Create a fresh :class:`Recorder` and install it for the block.

    Parameters
    ----------
    profile:
        Forwarded to :class:`Recorder` — every span additionally runs
        under a scoped profiler.

    Examples
    --------
    >>> from repro.obs import recording
    >>> with recording() as rec:
    ...     rec.count("sample_size", 3)
    >>> rec.counters
    {'sample_size': 3}
    """
    with use_recorder(Recorder(profile=profile)) as recorder:
        yield recorder


class Stopwatch:
    """Minimal elapsed-wall-time context manager.

    The sanctioned way for library code to measure a duration without
    opening a recorder span (experiments report raw seconds in their
    tables). ``elapsed`` is valid after the block exits.

    Examples
    --------
    >>> with Stopwatch() as watch:
    ...     pass
    >>> watch.elapsed >= 0.0
    True
    """

    __slots__ = ("elapsed", "_t0")

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._t0: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._t0


def format_spans(spans: list[dict], indent: int = 0) -> str:
    """Render a span tree (``Span.to_dict`` form) as an indented text tree.

    Parameters
    ----------
    spans:
        List of nested span dictionaries, as produced by
        :meth:`Span.to_dict` / :meth:`Recorder.snapshot`.
    indent:
        Current indentation level (used by the recursion).
    """
    lines = []
    for span in spans:
        counters = " ".join(
            f"{key}={_fmt_count(value)}"
            for key, value in sorted(span.get("counters", {}).items())
        )
        pad = "  " * indent
        head = f"{pad}{span['name']:<{max(1, 28 - len(pad))}} {span['elapsed_s']:8.3f}s"
        lines.append(f"{head}  {counters}".rstrip())
        child_text = format_spans(span.get("children", []), indent + 1)
        if child_text:
            lines.append(child_text)
    return "\n".join(lines)


def _fmt_count(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
