"""Data-driven bandwidth selection rules.

Both rules are normal-reference ("rule of thumb") selectors: per-attribute
bandwidths proportional to the attribute's spread times ``n^(-1/(d+4))``.
They are the standard defaults in the kernel-estimation literature the
paper cites (Silverman 1986; Scott 1992) and are what a one-pass fit can
compute from streaming moments.
"""

from __future__ import annotations

import numpy as np

from repro.density.kernels import Kernel, get_kernel
from repro.exceptions import ParameterError

__all__ = [
    "scott_bandwidth",
    "silverman_bandwidth",
    "resolve_bandwidth",
]


#: Constant attributes get this fraction of the largest spread (or the
#: data-magnitude hint) as their stand-in spread.
_RELATIVE_FLOOR = 1e-3


def _validate(
    std: np.ndarray, n_points: int, scale: float | None = None
) -> np.ndarray:
    std = np.asarray(std, dtype=np.float64)
    if n_points < 1:
        raise ParameterError(f"n_points must be >= 1; got {n_points}.")
    if n_points < 2:
        raise ParameterError(
            "bandwidth rules need at least 2 points (the sample spread of "
            "a single point is undefined); pass numeric bandwidths for a "
            "single-point fit."
        )
    if (std < 0).any():
        raise ParameterError("standard deviations must be non-negative.")
    # A constant attribute would give bandwidth 0 (a delta spike). Fall
    # back to a small positive width *relative to the data's scale* —
    # an absolute floor would be a delta spike for data in units of 1e6
    # and an enormous bandwidth for data in units of 1e-6.
    reference = float(std.max())
    if scale is not None:
        reference = max(reference, abs(float(scale)))
    if reference <= 0:
        reference = 1.0  # every attribute constant at zero: unit scale
    floor = np.where(std > 0, std, _RELATIVE_FLOOR * reference)
    return floor


def scott_bandwidth(
    std,
    n_points: int,
    n_dims: int,
    kernel: str | Kernel = "gaussian",
    *,
    scale: float | None = None,
) -> np.ndarray:
    """Scott's rule: ``h_j = delta_0(K) * sigma_j * n^(-1/(d+4))``.

    Parameters
    ----------
    std:
        Per-attribute standard deviations, shape ``(d,)``.
    n_points:
        Dataset size the estimator represents.
    n_dims:
        Dimensionality ``d``.
    kernel:
        Kernel whose canonical-bandwidth factor rescales the Gaussian
        reference rule.
    scale:
        Optional data-magnitude hint (e.g. the largest attribute mean,
        in absolute value) used to floor the spread of constant
        attributes relative to the data's scale.
    """
    std = _validate(std, n_points, scale)
    factor = get_kernel(kernel).canonical_bandwidth
    return factor * std * n_points ** (-1.0 / (n_dims + 4))


def silverman_bandwidth(
    std,
    n_points: int,
    n_dims: int,
    kernel: str | Kernel = "gaussian",
    *,
    scale: float | None = None,
) -> np.ndarray:
    """Silverman's rule: Scott's rule shrunk by ``(4/(d+2))^(1/(d+4))``."""
    std = _validate(std, n_points, scale)
    factor = get_kernel(kernel).canonical_bandwidth
    shrink = (4.0 / (n_dims + 2.0)) ** (1.0 / (n_dims + 4.0))
    return factor * shrink * std * n_points ** (-1.0 / (n_dims + 4))


_RULES = {"scott": scott_bandwidth, "silverman": silverman_bandwidth}


def resolve_bandwidth(
    bandwidth,
    std: np.ndarray,
    n_points: int,
    n_dims: int,
    kernel: str | Kernel,
    *,
    scale: float | None = None,
) -> np.ndarray:
    """Turn a bandwidth spec (rule name, scalar, or vector) into per-dim widths.

    Every resolved width must be finite and strictly positive: a NaN
    width makes every density NaN and an infinite one makes it zero
    everywhere, so either raises a :class:`ParameterError` naming the
    first offending attribute — for numeric widths and for rule-derived
    ones (whose spread overflows for data near 1e300) alike.
    """
    if isinstance(bandwidth, str):
        try:
            rule = _RULES[bandwidth]
        except KeyError:
            raise ParameterError(
                f"unknown bandwidth rule {bandwidth!r}; "
                f"choose from {sorted(_RULES)} or pass numeric widths."
            ) from None
        width = rule(std, n_points, n_dims, kernel, scale=scale)
        source = (
            f"from the {bandwidth!r} rule: the attribute's spread is out "
            "of float64 range"
        )
    else:
        width = np.asarray(bandwidth, dtype=np.float64)
        if width.ndim == 0:
            width = np.full(n_dims, float(width))
        if width.shape != (n_dims,):
            raise ParameterError(
                f"bandwidth must be a scalar or have shape ({n_dims},); "
                f"got shape {width.shape}."
            )
        source = "as given"
    bad = np.flatnonzero(~(np.isfinite(width) & (width > 0)))
    if bad.size:
        j = int(bad[0])
        raise ParameterError(
            f"bandwidth of attribute {j} is {float(width[j])!r} ({source}); "
            "bandwidths must be finite and strictly positive."
        )
    return width
