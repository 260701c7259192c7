"""Selectable density backends: one knob choosing the estimator family.

The sampler is agnostic about *how* densities are estimated (the paper
stresses the choice is orthogonal), so the default estimator every
entry point builds — :class:`~repro.core.DensityBiasedSampler` without
an explicit ``estimator``, the practitioner's-guide
:meth:`~repro.core.SamplerRecommendation.make_sampler`, the pipelines
and the experiment runner — is resolved through this registry:

* ``"kde"`` — the paper's kernel density estimate (reservoir centers,
  product kernels); the default.
* ``"tree"`` — the random-partition forest
  (:class:`~repro.density.tree.TreeDensityEstimator`): coarser
  per-point estimates, but a fit that is pure streaming counting and a
  lookup that costs ``O(trees * depth)`` per point instead of
  ``O(m * d)``.

An explicit ``backend`` argument wins; otherwise the family is the
``density_backend`` field of :func:`repro.config.current_config`
(``repro run --density-backend``, :func:`use_density_backend`,
``REPRO_DENSITY_BACKEND``; default ``"kde"``). An explicitly supplied
estimator instance always bypasses the registry.
"""

from __future__ import annotations

from repro.config import (
    DENSITY_BACKEND_ENV,
    DENSITY_BACKENDS,
    check_density_backend,
    current_config,
    use_config,
)
from repro.density.base import DensityEstimator

__all__ = [
    "DENSITY_BACKEND_ENV",
    "density_backend_names",
    "make_density_estimator",
    "resolve_density_backend",
    "use_density_backend",
]


def _make_kde(budget: int, random_state) -> DensityEstimator:
    from repro.density.kde import KernelDensityEstimator

    return KernelDensityEstimator(
        n_kernels=budget, random_state=random_state
    )


def _make_tree(budget: int, random_state) -> DensityEstimator:
    # The kernel budget does not transfer (a forest's summary is
    # trees x leaves, not centers); the estimator's own defaults are
    # the oracle-validated configuration.
    from repro.density.tree import TreeDensityEstimator

    return TreeDensityEstimator(random_state=random_state)


_BACKENDS = {
    "kde": _make_kde,
    "tree": _make_tree,
}


def density_backend_names() -> tuple[str, ...]:
    """Registered backend names, for CLI choices and error messages."""
    return DENSITY_BACKENDS


def resolve_density_backend(backend: str | None = None) -> str:
    """Validate an explicit backend name; ``None`` gives the ambient
    ``current_config().density_backend``."""
    if backend is None:
        return current_config().density_backend
    return check_density_backend(backend)


def use_density_backend(backend: str | None):
    """Install an ambient density family: ``use_config(density_backend=...)``.

    Every default-built estimator inside the block — the sampler
    fallback, the practitioner's guide, the pipelines — uses it.
    """
    return use_config(density_backend=backend)


def make_density_estimator(
    backend: str | None = None,
    *,
    budget: int = 1000,
    random_state=None,
) -> DensityEstimator:
    """Build an unfitted estimator from the resolved backend.

    Parameters
    ----------
    backend:
        Backend name, or ``None`` for the ambient/environment
        resolution (see :func:`resolve_density_backend`).
    budget:
        Summary-size budget in the backend's natural unit — kernel
        centers for ``"kde"``; the forest backend sizes itself from
        its own validated defaults.
    random_state:
        Seed or generator forwarded to the estimator.
    """
    return _BACKENDS[resolve_density_backend(backend)](
        int(budget), random_state
    )
