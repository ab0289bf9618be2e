"""Argument-validation helpers.

All helpers raise :class:`repro.errors.ValidationError` with a message
naming the offending parameter, so API misuse surfaces at the boundary
rather than as a NumPy broadcast error three frames deep.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_square_matrix",
    "check_vector",
]


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Ensure ``value`` is > 0 (or >= 0 when ``strict=False``)."""
    if strict and not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Ensure ``value`` is >= 0."""
    return check_positive(name, value, strict=False)


def check_probability(name: str, value: float) -> float:
    """Ensure ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be a probability in [0, 1], got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
    *,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Ensure ``value`` lies in the given (half-)open interval."""
    if low is not None:
        ok = value >= low if low_inclusive else value > low
        if not ok:
            op = ">=" if low_inclusive else ">"
            raise ValidationError(f"{name} must be {op} {low}, got {value!r}")
    if high is not None:
        ok = value <= high if high_inclusive else value < high
        if not ok:
            op = "<=" if high_inclusive else "<"
            raise ValidationError(f"{name} must be {op} {high}, got {value!r}")
    return value


def check_vector(name: str, v: np.ndarray, *, size: Optional[int] = None) -> np.ndarray:
    """Ensure ``v`` is a finite 1-D float array (optionally of given size)."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise ValidationError(f"{name} must have length {size}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def check_square_matrix(name: str, m: np.ndarray) -> np.ndarray:
    """Ensure ``m`` is a finite 2-D square float array and return it."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr
