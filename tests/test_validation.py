"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError, ParameterError
from repro.utils.validation import (
    check_array,
    check_fraction,
    check_positive,
    check_random_state,
)


class TestCheckArray:
    def test_accepts_2d_list(self):
        arr = check_array([[1, 2], [3, 4]])
        assert arr.shape == (2, 2)
        assert arr.dtype == np.float64

    def test_returns_contiguous(self):
        arr = check_array(np.arange(12).reshape(3, 4)[:, ::2])
        assert arr.flags["C_CONTIGUOUS"]

    def test_rejects_1d_by_default(self):
        with pytest.raises(DataValidationError, match="reshape"):
            check_array([1.0, 2.0])

    def test_allow_1d_reshapes_to_column(self):
        arr = check_array([1.0, 2.0], allow_1d=True)
        assert arr.shape == (2, 1)

    def test_rejects_3d(self):
        with pytest.raises(DataValidationError, match="2-dimensional"):
            check_array(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DataValidationError, match="at least 1"):
            check_array(np.empty((0, 3)))

    def test_min_rows_enforced(self):
        with pytest.raises(DataValidationError, match="at least 5"):
            check_array(np.zeros((3, 2)), min_rows=5)

    def test_rejects_nan(self):
        with pytest.raises(DataValidationError, match="NaN"):
            check_array([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(DataValidationError, match="NaN or infinite"):
            check_array([[np.inf, 0.0]])

    @pytest.mark.parametrize(
        "cell, value, located",
        [
            ((3, 1), np.nan, r"data\[3, 1\] is nan"),
            ((0, 0), -np.inf, r"data\[0, 0\] is -inf"),
            ((2, 0), np.inf, r"data\[2, 0\] is inf"),
        ],
    )
    def test_error_locates_first_non_finite_cell(self, cell, value, located):
        data = np.zeros((5, 2))
        data[cell] = value
        data[4, 1] = np.nan  # a later bad cell is not the one named
        with pytest.raises(DataValidationError, match=located):
            check_array(data)

    def test_rejects_zero_columns(self):
        with pytest.raises(DataValidationError, match="column"):
            check_array(np.empty((3, 0)))

    def test_name_appears_in_error(self):
        with pytest.raises(DataValidationError, match="mydata"):
            check_array(np.zeros((2, 2, 2)), name="mydata")


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = check_random_state(42).random(5)
        b = check_random_state(42).random(5)
        assert (a == b).all()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_legacy_randomstate_wrapped(self):
        legacy = np.random.RandomState(0)
        assert isinstance(check_random_state(legacy), np.random.Generator)

    def test_rejects_strings(self):
        with pytest.raises(ParameterError, match="random_state"):
            check_random_state("seed")


class TestScalarChecks:
    def test_positive_accepts_floats_and_ints(self):
        assert check_positive(2, name="x") == 2.0
        assert check_positive(0.5, name="x") == 0.5

    def test_positive_rejects_zero_when_strict(self):
        with pytest.raises(ParameterError, match="> 0"):
            check_positive(0, name="x")

    def test_positive_non_strict_allows_zero(self):
        assert check_positive(0, name="x", strict=False) == 0.0

    def test_positive_rejects_bool(self):
        with pytest.raises(ParameterError):
            check_positive(True, name="x")

    def test_fraction_bounds(self):
        assert check_fraction(0.0, name="f") == 0.0
        assert check_fraction(1.0, name="f") == 1.0
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            check_fraction(1.5, name="f")

    def test_fraction_exclusive(self):
        with pytest.raises(ParameterError, match=r"\(0, 1\)"):
            check_fraction(0.0, name="f", inclusive=False)
