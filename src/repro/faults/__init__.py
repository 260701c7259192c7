"""repro.faults: what every dataset stream does with invalid rows.

The paper's pipeline is a chain of sequential dataset passes, so one
NaN, Inf or implausibly large row used to kill a whole run. A
:class:`RowQuarantine` policy (strict / quarantine / repair) is applied
by every stream to every chunk, installed globally with
:func:`use_fault_policy` or per stream via the ``fault_policy``
constructor argument. Degenerate input therefore either works or fails
with a :class:`repro.exceptions.DataValidationError` that locates the
bad row.

Example::

    from repro.utils.filestreams import NpyFileStream

    stream = NpyFileStream("data.npy", fault_policy="quarantine")
    result = ApproximateClusteringPipeline(n_clusters=5).fit(
        None, stream=stream
    )

Counters (``rows_quarantined``, ``rows_repaired``, ``cells_repaired``)
land in the ambient :class:`repro.obs.Recorder` and therefore in run
manifests.
"""

from repro.faults.policy import (
    FAULT_POLICY_MODES,
    RowQuarantine,
    STRICT_POLICY,
    get_fault_policy,
    resolve_fault_policy,
    use_fault_policy,
)

__all__ = [
    "FAULT_POLICY_MODES",
    "RowQuarantine",
    "STRICT_POLICY",
    "get_fault_policy",
    "resolve_fault_policy",
    "use_fault_policy",
]
