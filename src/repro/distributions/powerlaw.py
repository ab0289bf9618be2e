"""Discrete bounded power-law (Zipf) samplers.

Two uses in the paper's evaluation:

* **Feedback counts** (§6.1): the number of feedbacks each node issues
  is power-law distributed with maximum ``d_max = 200`` and mean
  ``d_avg = 20``.  :class:`FeedbackCountDistribution` solves for the
  Zipf exponent that hits the requested mean on the support
  ``{1, ..., d_max}``.
* **File copy counts** (§6.4): copies of the rank-``i`` file are
  proportional to ``i ** -phi`` with popularity rate ``phi = 1.2``;
  :func:`powerlaw_weights` builds those rank weights.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "powerlaw_weights",
    "solve_zipf_exponent_for_mean",
    "BoundedZipf",
    "FeedbackCountDistribution",
]

#: bisection stops once the exponent bracket is narrower than this
_BISECT_TOL = 1e-10

#: bisection step budget
_BISECT_STEPS = 200

#: largest number of feedbacks any single node issues (§6.1)
_D_MAX = 200

#: average feedback count across nodes (§6.1)
_D_AVG = 20.0


def powerlaw_weights(n: int, exponent: float) -> np.ndarray:
    """Unnormalized power-law rank weights ``w_i = i ** -exponent``.

    Parameters
    ----------
    n:
        Number of ranks (support is ranks ``1..n``).
    exponent:
        Power-law exponent (``phi`` in the paper); must be >= 0.

    Returns
    -------
    numpy.ndarray
        Length-``n`` positive weight vector (not normalized).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    check_in_range("exponent", exponent, low=0.0)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return ranks**-exponent


def _zipf_mean(exponent: float, kmax: int) -> float:
    """Mean of the bounded Zipf distribution on ``{1..kmax}``."""
    k = np.arange(1, kmax + 1, dtype=np.float64)
    w = k**-exponent
    return float((k * w).sum() / w.sum())


def solve_zipf_exponent_for_mean(target_mean: float, kmax: int) -> float:
    """Find the bounded-Zipf exponent whose mean on ``{1..kmax}`` is ``target_mean``.

    The mean of the bounded Zipf on ``{1..kmax}`` decreases monotonically
    in the exponent, from ``(kmax+1)/2`` at exponent 0 toward 1 as the
    exponent grows, so bisection converges unconditionally for any
    feasible target.

    Raises
    ------
    ValidationError
        If ``target_mean`` is outside the attainable range
        ``(1, (kmax+1)/2]``.
    """
    if kmax < 1:
        raise ValidationError(f"kmax must be >= 1, got {kmax}")
    check_positive("target_mean", target_mean)
    hi_mean = (kmax + 1) / 2.0
    if not 1.0 < target_mean <= hi_mean:
        raise ValidationError(
            f"target_mean must lie in (1, {hi_mean}] for kmax={kmax}, got {target_mean}"
        )
    lo, hi = 0.0, 1.0
    # Expand hi until the mean drops below the target.
    while _zipf_mean(hi, kmax) > target_mean:
        hi *= 2.0
        if hi > 64:  # pragma: no cover - defensive; mean -> 1 well before this
            break
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if _zipf_mean(mid, kmax) > target_mean:
            lo = mid
        else:
            hi = mid
        if hi - lo < _BISECT_TOL:
            break
    return 0.5 * (lo + hi)


class BoundedZipf:
    """Zipf distribution truncated to the support ``{1, ..., kmax}``.

    Unlike :func:`numpy.random.Generator.zipf` this supports exponents
    <= 1 (the untruncated Zipf is only defined for exponent > 1) and
    never samples outside the bound — both required by the paper's
    workloads.
    """

    def __init__(self, exponent: float, kmax: int):
        check_in_range("exponent", exponent, low=0.0)
        if kmax < 1:
            raise ValidationError(f"kmax must be >= 1, got {kmax}")
        self.exponent = float(exponent)
        self.kmax = int(kmax)
        weights = powerlaw_weights(self.kmax, self.exponent)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        # Guard against cumulative rounding leaving the last entry < 1.
        self._cdf[-1] = 1.0

    @property
    def pmf(self) -> np.ndarray:
        """Probability mass over ``{1..kmax}`` (index 0 is k=1)."""
        return self._pmf.copy()

    @property
    def mean(self) -> float:
        """Expected value of the distribution."""
        k = np.arange(1, self.kmax + 1, dtype=np.float64)
        return float((k * self._pmf).sum())

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``size`` iid values in ``{1..kmax}`` by inverse CDF."""
        if size < 0:
            raise ValidationError(f"size must be >= 0, got {size}")
        gen = as_generator(rng)
        u = gen.random(size)
        return np.searchsorted(self._cdf, u, side="right").astype(np.int64) + 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"BoundedZipf(exponent={self.exponent:.4f}, kmax={self.kmax})"


class FeedbackCountDistribution(BoundedZipf):
    """Feedback-count distribution of §6.1: bounded power law.

    The paper fixes the maximum feedback amount ``d_max = 200``
    (``_D_MAX``) and the average ``d_avg = 20`` (``_D_AVG``); the
    exponent is whatever bounded-Zipf exponent realizes that mean.
    """

    def __init__(self) -> None:
        super().__init__(solve_zipf_exponent_for_mean(_D_AVG, _D_MAX), _D_MAX)

    def sample_counts(self, n_nodes: int, rng: SeedLike = None) -> np.ndarray:
        """Feedback counts for ``n_nodes`` peers, each in ``{1..kmax}``."""
        return self.sample(n_nodes, rng)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FeedbackCountDistribution(d_max={self.kmax}, "
            f"exponent={self.exponent:.4f})"
        )
