"""Validation helper contracts."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_square_matrix,
    check_vector,
)


class TestScalars:
    def test_check_positive_accepts_positive(self):
        assert check_positive("x", 0.5) == 0.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValidationError, match="x"):
            check_positive("x", 0.0)

    def test_check_positive_nonstrict_accepts_zero(self):
        assert check_positive("x", 0.0, strict=False) == 0.0

    def test_check_non_negative(self):
        assert check_non_negative("y", 0.0) == 0.0
        with pytest.raises(ValidationError):
            check_non_negative("y", -1e-9)

    def test_check_probability_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValidationError):
            check_probability("p", 1.0001)
        with pytest.raises(ValidationError):
            check_probability("p", -0.1)

    def test_check_in_range_inclusive_and_exclusive(self):
        assert check_in_range("v", 1.0, low=1.0) == 1.0
        with pytest.raises(ValidationError):
            check_in_range("v", 1.0, low=1.0, low_inclusive=False)
        assert check_in_range("v", 2.0, high=2.0) == 2.0
        with pytest.raises(ValidationError):
            check_in_range("v", 2.0, high=2.0, high_inclusive=False)

    def test_check_in_range_message_names_param(self):
        with pytest.raises(ValidationError, match="epsilon"):
            check_in_range("epsilon", -1.0, low=0.0)


class TestArrays:
    def test_check_vector_shape_and_size(self):
        v = check_vector("v", [1.0, 2.0], size=2)
        assert v.dtype == np.float64
        with pytest.raises(ValidationError):
            check_vector("v", [1.0, 2.0], size=3)
        with pytest.raises(ValidationError):
            check_vector("v", np.ones((2, 2)))

    def test_check_vector_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_vector("v", [1.0, float("nan")])

    def test_check_square_matrix(self):
        m = check_square_matrix("m", np.eye(3))
        assert m.shape == (3, 3)
        with pytest.raises(ValidationError):
            check_square_matrix("m", np.ones((2, 3)))
        with pytest.raises(ValidationError):
            check_square_matrix("m", np.full((2, 2), np.inf))
