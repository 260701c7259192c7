"""Input validation helpers used across the library.

These keep the validation rules in one place so every estimator rejects
bad input with the same, descriptive error messages.
"""

from __future__ import annotations

import numbers

import numpy as np
from numpy.typing import ArrayLike, DTypeLike

from repro.exceptions import DataValidationError, ParameterError

__all__ = [
    "RandomStateLike",
    "check_array",
    "check_random_state",
    "nonfinite_error",
    "check_positive",
    "check_fraction",
]

#: Anything :func:`check_random_state` accepts as a randomness source.
RandomStateLike = (
    int | np.random.Generator | np.random.RandomState | None
)


def check_array(
    data: ArrayLike,
    *,
    name: str = "data",
    min_rows: int = 1,
    allow_1d: bool = False,
    dtype: DTypeLike = np.float64,
    allow_nonfinite: bool = False,
) -> np.ndarray:
    """Validate and coerce ``data`` into a 2-D float array.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array of shape ``(n, d)``. A 1-D
        array is accepted when ``allow_1d`` is true and is reshaped to a
        single column.
    name:
        Name used in error messages.
    min_rows:
        Minimum number of rows required.
    allow_1d:
        Accept a 1-D array and reshape it to a single column.
    dtype:
        Target dtype of the returned array.
    allow_nonfinite:
        Skip the NaN/Inf check. Only the stream hardening layer should
        pass true — it routes the dirty rows through a
        :class:`repro.faults.RowQuarantine` policy instead of failing.

    Returns
    -------
    numpy.ndarray
        A C-contiguous ``(n, d)`` array of ``dtype``.

    Raises
    ------
    DataValidationError
        If the array is empty, has the wrong rank, or contains
        non-finite values.
    """
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim == 1:
        if not allow_1d:
            raise DataValidationError(
                f"{name} must be 2-dimensional (n_points, n_dims); "
                f"got a 1-D array of length {arr.shape[0]}. "
                "Reshape with data.reshape(-1, 1) for a single feature."
            )
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DataValidationError(
            f"{name} must be 2-dimensional (n_points, n_dims); "
            f"got ndim={arr.ndim}."
        )
    if arr.shape[0] < min_rows:
        raise DataValidationError(
            f"{name} must contain at least {min_rows} point(s); "
            f"got {arr.shape[0]}."
        )
    if arr.shape[1] < 1:
        raise DataValidationError(f"{name} must have at least one column.")
    if not allow_nonfinite:
        error = nonfinite_error(arr, name=name)
        if error is not None:
            raise error
    return np.ascontiguousarray(arr)


def nonfinite_error(
    arr: np.ndarray, *, name: str = "data", row_offset: int = 0
) -> DataValidationError | None:
    """The error naming ``arr``'s first non-finite cell, or ``None``.

    Parameters
    ----------
    arr:
        A 2-D float array.
    name:
        Name used in the message.
    row_offset:
        Added to the row index in the message, for a chunk that starts
        ``row_offset`` rows into a larger source.

    Returns
    -------
    DataValidationError or None
        ``None`` when every cell is finite; otherwise an error whose
        message locates the first NaN or infinite cell in row-major
        order, e.g. ``data[3, 1] is nan``.
    """
    finite = np.isfinite(arr)
    if finite.all():
        return None
    row, col = np.unravel_index(np.argmin(finite), finite.shape)
    return DataValidationError(
        f"{name} contains NaN or infinite values: "
        f"{name}[{row_offset + row}, {col}] is {arr[row, col]}; "
        "clean the data first."
    )


def check_random_state(seed: RandomStateLike) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, an existing
    ``Generator`` (returned as-is), or a legacy ``RandomState`` (wrapped).
    """
    if seed is None or isinstance(seed, numbers.Integral):
        return np.random.default_rng(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.RandomState):
        # Wrap the legacy bit generator so downstream code only ever
        # sees the Generator API.
        return np.random.default_rng(seed.randint(np.iinfo(np.int32).max))
    raise ParameterError(
        f"random_state must be None, an int, or a numpy Generator; "
        f"got {type(seed).__name__}."
    )


def check_positive(value: float, *, name: str, strict: bool = True) -> float:
    """Validate that a numeric parameter is positive (or non-negative)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number; got {value!r}.")
    value = float(value)
    if strict and value <= 0:
        raise ParameterError(f"{name} must be > 0; got {value}.")
    if not strict and value < 0:
        raise ParameterError(f"{name} must be >= 0; got {value}.")
    return value


def check_fraction(value: float, *, name: str, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) if not inclusive)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number; got {value!r}.")
    value = float(value)
    if inclusive and not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1]; got {value}.")
    if not inclusive and not 0.0 < value < 1.0:
        raise ParameterError(f"{name} must be in (0, 1); got {value}.")
    return value
