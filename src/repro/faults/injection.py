"""Fault-injecting stream wrapper for chaos testing.

:class:`FaultyStream` wraps any :class:`~repro.utils.streams.DataStream`
(in-memory or file-backed) and injects the faults a
:class:`~repro.faults.FaultPlan` schedules: NaN/Inf rows, corrupted
cells, short reads and transient I/O errors. Injected chunks then flow
through the *same* hardening path every stream applies — a
:class:`~repro.faults.RowQuarantine` policy and a
:class:`~repro.faults.RetryPolicy` — so chaos tests exercise exactly
the code real dirty data would.

Determinism: data faults are keyed by chunk index (persistent — every
pass sees identical damage) and I/O faults by (pass, chunk), so a run
under a fixed seed is byte-identical across invocations and worker
counts. Because fault decisions never depend on the data values, the
surviving-row count is computed at construction and ``n_points`` is
exact before the first pass — the property samplers rely on when they
pre-allocate per-row buffers.

Observability counters (all merged into run manifests):

* ``faults_injected`` — total injected fault events;
* ``fault_rows_injected`` — delivered rows carrying an injected
  invalid value (the number ``rows_quarantined`` must match under the
  quarantine policy when the plan's corruption is detectable);
* ``rows_dropped_short_read`` — rows lost to truncated chunk reads;
* ``io_errors_injected`` — transient read failures raised.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError, TransientIOError
from repro.faults.plan import FaultPlan
from repro.faults.policy import RowQuarantine, resolve_fault_policy
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.obs import get_recorder
from repro.utils.streams import DataStream, as_stream

__all__ = ["FaultyStream"]


class FaultyStream(DataStream):
    """A stream that corrupts its chunks on the way out, then hardens them.

    Parameters
    ----------
    stream:
        The clean source to wrap — a :class:`DataStream`, a file
        stream, or anything ``as_stream`` accepts. Its rows are assumed
        valid under ``fault_policy`` (wrap clean sources; the point is
        controlling the faults).
    plan:
        The seeded :class:`FaultPlan` deciding every injected fault.
    fault_policy:
        Hardening applied after injection: a mode name, a
        :class:`RowQuarantine`, or ``None`` for the ambient policy.
    retry_policy:
        Retry budget for injected transient read failures; defaults to
        the shared sleepless 3-retry policy.
    """

    def __init__(
        self,
        stream,
        plan: FaultPlan,
        fault_policy: RowQuarantine | str | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        inner = as_stream(stream)
        self.inner = inner
        self.plan = plan
        self.fault_policy = resolve_fault_policy(fault_policy)
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self.chunk_size = inner.chunk_size
        self.n_dims = inner.n_dims
        self.passes = 0
        self._chunk_survivors = tuple(
            self._survivors(index, length)
            for index, length in enumerate(self._layout(inner))
        )
        self.n_points = sum(self._chunk_survivors)
        if self.n_points == 0:
            raise DataValidationError(
                "the fault plan leaves no surviving rows; lower the rates "
                "or the short-read fraction."
            )

    # -- construction-time accounting ----------------------------------------

    @staticmethod
    def _layout(inner: DataStream) -> list[int]:
        """Raw chunk lengths the wrapped stream will deliver per pass."""
        lengths = []
        remaining = inner.n_points
        while remaining > 0:
            lengths.append(min(inner.chunk_size, remaining))
            remaining -= lengths[-1]
        return lengths

    def _survivors(self, chunk_index: int, n_rows: int) -> int:
        """Rows of one chunk that reach consumers under the policy."""
        faults = self.plan.chunk_faults(chunk_index, n_rows, self.n_dims)
        delivered = n_rows - faults.n_truncated
        if self.fault_policy.mode != "quarantine":
            return delivered
        dropped = (
            faults.n_bad_value_rows
            if self.plan.corrupt_detectable_by(self.fault_policy)
            else np.union1d(faults.nan_rows, faults.inf_rows).shape[0]
        )
        return delivered - dropped

    # -- iteration -----------------------------------------------------------

    def iter_with_offsets(self):
        """Yield (surviving-row offset, hardened chunk) pairs."""
        out = 0
        for offset, clean in super().iter_with_offsets():
            yield offset, clean
            out += clean.shape[0]
        if out != self.n_points:
            raise DataValidationError(
                f"faulty stream yielded {out} surviving rows in pass "
                f"{self.passes} but advertised n_points={self.n_points}; "
                "the wrapped stream is dirty or changed between passes "
                "(wrap a clean source so fault accounting stays exact)."
            )

    def materialize(self) -> np.ndarray:
        """All surviving rows as one array (counts as one pass)."""
        parts = [chunk for _, chunk in self.iter_with_offsets()]
        if not parts:
            return np.empty((0, self.n_dims))
        return np.vstack(parts)

    # -- shard support (see repro.sharding) ----------------------------------

    def chunk_sizes(self) -> tuple[int, ...]:
        """Surviving-row count of every chunk one pass would yield.

        Bookkeeping, not a scan: fault decisions never depend on the
        data, so the per-chunk survivor counts are fixed at
        construction.
        """
        return self._chunk_survivors

    def iter_chunk_range(self, lo: int, hi: int):
        """Yield ``(offset, chunk)`` for chunk indices ``[lo, hi)``.

        The per-chunk path of every pass: injected faults, retries and
        policy application, keyed by the current pass. The pass
        bookkeeping (``passes``, already bumped for this pass) is owned
        by the caller — :meth:`iter_with_offsets`, or a coordinating
        shard scan.
        """
        pass_index = self.passes
        out = sum(self._chunk_survivors[:lo])
        raw = self.inner.iter_chunk_range(lo, hi)
        for chunk_index, (raw_start, chunk) in enumerate(raw, start=lo):
            faulted = self.retry_policy.call(
                self._reader(chunk, pass_index, chunk_index),
                describe=f"chunk {chunk_index} of faulty stream",
            )
            clean = self.fault_policy.apply(
                faulted,
                origin=f"faulty stream (chunk {chunk_index})",
                pass_index=pass_index,
                start=raw_start,
            )
            if clean.shape[0]:
                yield out, clean
                out += clean.shape[0]

    def _reader(self, chunk: np.ndarray, pass_index: int, chunk_index: int):
        """One chunk's read attempt: planned transient failures, then data."""
        n_failures = self.plan.io_failures_for(pass_index, chunk_index)

        def attempt(index: int) -> np.ndarray:
            if index < n_failures:
                recorder = get_recorder()
                recorder.count("io_errors_injected")
                recorder.count("faults_injected")
                raise TransientIOError(
                    f"injected transient read failure (pass {pass_index}, "
                    f"chunk {chunk_index}, attempt {index})"
                )
            return self._inject(chunk, chunk_index)

        return attempt

    def _inject(self, chunk: np.ndarray, chunk_index: int) -> np.ndarray:
        """Apply the chunk's planned persistent data faults."""
        faults = self.plan.chunk_faults(
            chunk_index, chunk.shape[0], chunk.shape[1]
        )
        if faults.is_clean:
            return chunk
        recorder = get_recorder()
        faulted = chunk[: chunk.shape[0] - faults.n_truncated].copy()
        if faults.n_truncated:
            recorder.count("rows_dropped_short_read", faults.n_truncated)
            recorder.count("faults_injected", faults.n_truncated)
        if faults.nan_rows.size:
            faulted[faults.nan_rows] = np.nan
        if faults.inf_rows.size:
            faulted[faults.inf_rows] = (
                faults.inf_signs[:, np.newaxis] * np.inf
            )
        if faults.corrupt_rows.size:
            faulted[faults.corrupt_rows, faults.corrupt_cols] = (
                faults.corrupt_values
            )
        n_bad = faults.n_bad_value_rows
        if n_bad:
            recorder.count("fault_rows_injected", n_bad)
            recorder.count("faults_injected", n_bad)
        return faulted
