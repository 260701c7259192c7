"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the library throws with a single ``except`` clause while
still letting programming errors (``TypeError`` from misuse of numpy, etc.)
propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NotFittedError",
    "DataValidationError",
    "ParameterError",
    "ConvergenceWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NotFittedError(ReproError):
    """An estimator method requiring a fitted model was called before fit.

    Raised by density estimators, samplers, and clusterers whose
    ``predict``/``sample``/``score`` methods are used before ``fit``.
    """


class DataValidationError(ReproError, ValueError):
    """Input data failed validation (wrong shape, NaNs, empty, ...)."""


class ParameterError(ReproError, ValueError):
    """A hyper-parameter is outside its documented domain."""


class ConvergenceWarning(UserWarning):
    """An iterative algorithm stopped before meeting its tolerance."""
