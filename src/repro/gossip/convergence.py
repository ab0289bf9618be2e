"""Convergence detection for aggregation cycles.

Two nested criteria (Fig. 1(b)):

* **epsilon** — within an aggregation cycle, gossip steps continue until
  every node's estimate moves by at most the gossip error threshold
  ``epsilon`` in one step (Algorithm 1 line 14).  Each engine checks it
  inside its own step loop (see docs/PROTOCOL.md, "Convergence
  thresholds").
* **delta** — aggregation cycles continue until the *average relative
  error* between ``V(t)`` and ``V(t-1)`` drops below the aggregation
  threshold ``delta`` (§4.1 / Algorithm 2 line 25):
  :class:`CycleConvergenceDetector`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_in_range

__all__ = [
    "average_relative_error",
    "CycleConvergenceDetector",
]

#: floor of the epsilon check's relative-change denominators, in every
#: engine: genuine zero estimates (peers with no inbound trust mass)
#: compare as absolute changes against it
REL_FLOOR = 1e-12

#: floor of :func:`average_relative_error`'s denominators
_ERROR_FLOOR = 1e-15


def average_relative_error(new: np.ndarray, old: np.ndarray) -> float:
    """Mean of ``|new_i - old_i| / max(old_i, 1e-15)`` over all components.

    The paper's cycle criterion ("average relative error between V(d)
    and V(d+1)").  The floor (``_ERROR_FLOOR``) guards division when a score is (numerically)
    zero; reputation scores are probabilities so genuine zeros only occur
    for peers nobody rated.
    """
    a = np.asarray(new, dtype=np.float64)
    b = np.asarray(old, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        # No components, no error — and np.mean([]) would warn and
        # return nan, poisoning every comparison downstream.
        return 0.0
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.any():
        # Nothing comparable: report "infinitely far", never nan, so
        # thresholded callers (residual <= delta) behave monotonically.
        return float("inf")
    denom = np.maximum(np.abs(b[finite]), _ERROR_FLOOR)
    return float(np.mean(np.abs(a[finite] - b[finite]) / denom))


class CycleConvergenceDetector:
    """Per-aggregation-cycle delta criterion on the reputation vector."""

    def __init__(self, delta: float) -> None:
        check_in_range("delta", delta, low=0.0, low_inclusive=False)
        self.delta = float(delta)
        self._prev: Optional[np.ndarray] = None
        self.cycles = 0
        self.last_residual = float("inf")

    def update(self, vector: np.ndarray) -> bool:
        """Feed this cycle's vector; returns convergence verdict."""
        v = np.asarray(vector, dtype=np.float64)
        converged = False
        # Zero-size vectors carry no signal (the error of no components
        # is a vacuous 0); treat them as "no signal yet".
        if self._prev is not None and v.size:
            self.last_residual = average_relative_error(v, self._prev)
            # Nothing finite to compare gives an infinite residual,
            # which blocks convergence.
            converged = self.last_residual < self.delta
        self._prev = v.copy()
        self.cycles += 1
        return converged

    def reset(self) -> None:
        """Forget history (fresh aggregation)."""
        self._prev = None
        self.cycles = 0
        self.last_residual = float("inf")
