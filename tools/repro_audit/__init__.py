"""repro-audit: the repo's static contract analysis.

Run over the analysed tree::

    python -m tools.repro_audit src tools benchmarks

See :mod:`tools.repro_audit.core` for the architecture overview and
DESIGN.md §6 for rule semantics and known approximations. Public
surface: :func:`audit_paths`, :class:`Finding`, the rule registry, and
the renderers in :mod:`tools.repro_audit.reporting`.
"""

from tools.repro_audit.core import (
    RULES,
    AuditRule,
    Finding,
    ModuleRule,
    audit_paths,
    iter_rules,
    register,
)

__all__ = [
    "AuditRule",
    "Finding",
    "ModuleRule",
    "RULES",
    "audit_paths",
    "iter_rules",
    "register",
]
