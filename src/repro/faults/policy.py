"""Row-level fault policies: what a stream does with invalid rows.

Every chunk a :class:`~repro.utils.streams.DataStream` (or file stream)
emits is routed through a :class:`RowQuarantine` policy before any
sampler, density estimator or detector sees it. The policy decides what
happens to rows carrying NaN/Inf cells (or, optionally, cells whose
magnitude exceeds a plausibility bound):

* ``strict`` (the default) — raise a typed
  :class:`~repro.exceptions.DataValidationError` naming the offending
  pass, phase and chunk offset. This preserves the library's historical
  fail-fast behaviour.
* ``quarantine`` — drop the bad rows, count them under the
  ``rows_quarantined`` observability counter, and continue the pass.
* ``repair`` — impute every bad cell from the statistics of its own
  chunk (per-column mean over the chunk's valid cells) and continue;
  counted under ``rows_repaired`` / ``cells_repaired``.

The ambient policy is the ``fault_policy`` field of
:func:`repro.config.current_config` (default strict), so one
``with use_fault_policy("quarantine"):`` hardens every stream built
inside the block — including the ones samplers construct internally via
``as_stream`` — without threading a parameter through every call.

Determinism contract: a policy is bound to a stream at construction and
is a pure function of the chunk values, so every pass over the same
stream quarantines (or repairs) exactly the same rows. Downstream code
may therefore keep indexing by stream offsets across passes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError, ParameterError
from repro.obs import get_recorder
from repro.utils.validation import nonfinite_error

__all__ = [
    "FAULT_POLICY_MODES",
    "RowQuarantine",
    "STRICT_POLICY",
    "get_fault_policy",
    "resolve_fault_policy",
    "use_fault_policy",
]

#: The three documented policy modes, in escalation order.
FAULT_POLICY_MODES = ("strict", "quarantine", "repair")


class RowQuarantine:
    """Per-chunk handling of invalid rows (strict / quarantine / repair).

    Parameters
    ----------
    mode:
        One of ``"strict"`` (raise), ``"quarantine"`` (drop + count) or
        ``"repair"`` (impute from chunk statistics + count).
    max_abs:
        Optional plausibility bound: cells with ``|value| > max_abs``
        are treated as invalid in addition to NaN/Inf cells. Leave
        ``None`` (the default) to flag non-finite values only. Set it
        comfortably above the legitimate data range — rows the bound
        catches are handled exactly like NaN rows.
    """

    __slots__ = ("mode", "max_abs")

    def __init__(self, mode: str = "strict", max_abs: float | None = None):
        if mode not in FAULT_POLICY_MODES:
            raise ParameterError(
                f"fault-policy mode must be one of {FAULT_POLICY_MODES}; "
                f"got {mode!r}."
            )
        self.mode = mode
        if max_abs is not None:
            max_abs = float(max_abs)
            if not max_abs > 0:
                raise ParameterError(
                    f"max_abs must be > 0 or None; got {max_abs}."
                )
        self.max_abs = max_abs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "" if self.max_abs is None else f", max_abs={self.max_abs:g}"
        return f"RowQuarantine({self.mode!r}{bound})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RowQuarantine)
            and self.mode == other.mode
            and self.max_abs == other.max_abs
        )

    def __hash__(self) -> int:
        return hash((self.mode, self.max_abs))

    # -- detection -----------------------------------------------------------

    def invalid_cells(self, chunk: np.ndarray) -> np.ndarray:
        """Boolean ``(n, d)`` mask of cells this policy considers invalid.

        Parameters
        ----------
        chunk:
            A ``(n, d)`` float chunk.
        """
        bad = ~np.isfinite(chunk)
        if self.max_abs is not None:
            # |NaN| > bound is False, so the union is exact.
            bad |= np.abs(chunk) > self.max_abs
        return bad

    def count_invalid_rows(self, chunk: np.ndarray) -> int:
        """Number of rows of ``chunk`` holding at least one invalid cell.

        Pure (no recorder side effects): used by streams that need the
        surviving-row count up front, before any counted pass runs.

        Parameters
        ----------
        chunk:
            A ``(n, d)`` float chunk.
        """
        return int(self.invalid_cells(np.asarray(chunk)).any(axis=1).sum())

    # -- application ---------------------------------------------------------

    def apply(
        self,
        chunk: np.ndarray,
        *,
        origin: str = "data",
        pass_index: int | None = None,
        start: int = 0,
    ) -> np.ndarray:
        """Harden one chunk according to the policy mode.

        Parameters
        ----------
        chunk:
            The ``(n, d)`` chunk to validate.
        origin:
            Human-readable source name for error messages (a file path,
            ``"data"``, ...).
        pass_index:
            1-based index of the dataset pass emitting the chunk
            (``None`` for construction-time validation).
        start:
            Row offset of the chunk within the *raw* source, used in
            error messages and to name the first offending row.

        Returns
        -------
        numpy.ndarray
            The chunk with invalid rows dropped (quarantine), imputed
            (repair), or unchanged (no invalid cells). Strict mode
            raises instead of returning when invalid cells exist.

        Raises
        ------
        DataValidationError
            In strict mode, when the chunk holds any invalid cell. The
            message names the pass, the current observability phase
            (when one is open), the chunk offset and the first bad row.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        bad_cells = self.invalid_cells(chunk)
        if not bad_cells.any():
            return chunk
        bad_rows = bad_cells.any(axis=1)
        n_bad = int(bad_rows.sum())
        recorder = get_recorder()
        if self.mode == "strict":
            raise DataValidationError(
                self._strict_message(
                    chunk, bad_rows, n_bad, origin, pass_index, start,
                    recorder.current_phase,
                )
            )
        if self.mode == "quarantine":
            recorder.count("rows_quarantined", n_bad)
            recorder.observe("quarantine_batch_rows", n_bad)
            return chunk[~bad_rows]
        recorder.count("rows_repaired", n_bad)
        recorder.count("cells_repaired", int(bad_cells.sum()))
        return self._repair(chunk, bad_cells)

    def _strict_message(
        self, chunk, bad_rows, n_bad, origin, pass_index, start, phase
    ) -> str:
        first = start + int(np.argmax(bad_rows))
        # The same located message check_array raises for dirty
        # in-memory input, with the row counted from the source's start.
        error = nonfinite_error(chunk, name=origin, row_offset=start)
        headline = (
            str(error)
            if error is not None
            else f"{origin} contains values with magnitude above the "
            f"configured max_abs={self.max_abs:g}."
        )
        where = [
            f"pass {pass_index}" if pass_index is not None else "load time",
        ]
        if phase:
            where.append(f"phase {phase!r}")
        where.append(f"chunk offset {start}")
        return (
            f"{headline} [{', '.join(where)}: {n_bad} invalid row(s), "
            f"first at row {first}; rerun with fault policy 'quarantine' "
            f"to drop them or 'repair' to impute them]"
        )

    @staticmethod
    def _repair(chunk: np.ndarray, bad_cells: np.ndarray) -> np.ndarray:
        """Impute invalid cells from the chunk's per-column valid means.

        Columns with no valid cell in the chunk fall back to 0.0 — a
        deterministic, scale-free default for a fully corrupt column.
        """
        valid = ~bad_cells
        sums = np.where(valid, chunk, 0.0).sum(axis=0)
        counts = valid.sum(axis=0)
        means = np.divide(
            sums,
            counts,
            out=np.zeros(chunk.shape[1], dtype=np.float64),
            where=counts > 0,
        )
        repaired = np.where(bad_cells, means[np.newaxis, :], chunk)
        return np.ascontiguousarray(repaired)


#: The shared default policy: fail fast, exactly as the library always has.
STRICT_POLICY = RowQuarantine("strict")

# The accessors below import repro.config lazily: it imports this module.


def get_fault_policy() -> RowQuarantine:
    """The ambient fault policy (default: the strict singleton)."""
    from repro.config import current_config

    return current_config().fault_policy


def resolve_fault_policy(
    policy: RowQuarantine | str | None,
) -> RowQuarantine:
    """Coerce a mode name or :class:`RowQuarantine` into a policy;
    ``None`` gives the ambient policy."""
    from repro.config import check_fault_policy

    return get_fault_policy() if policy is None else check_fault_policy(policy)


def use_fault_policy(policy: RowQuarantine | str | None):
    """Install an ambient fault policy: ``use_config(fault_policy=policy)``.

    Streams bind the ambient policy at *construction*, so wrap the code
    that builds them (the pipeline does this for its internal
    ``as_stream`` call).
    """
    from repro.config import use_config

    return use_config(fault_policy=policy)
