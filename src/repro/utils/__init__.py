"""Shared utilities: RNG stream management, validation, run logging."""

from repro.utils.rng import RngStreams, as_generator
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_square_matrix,
)

__all__ = [
    "RngStreams",
    "as_generator",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_square_matrix",
]
