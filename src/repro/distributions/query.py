"""Two-segment Zipf query-popularity distribution (§6.4).

The paper models Gnutella query popularity with a piecewise power law:
exponent ``phi = 0.63`` for queries ranked 1 to 250 and ``phi = 1.24``
for lower-ranked queries.  The two segments are stitched continuously at
the break rank so the pmf has no discontinuity spike.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range

__all__ = ["TwoSegmentZipf"]


class TwoSegmentZipf:
    """Piecewise Zipf over ranks ``1..n`` with a break at ``break_rank``.

    ``weight(r) = r ** -head_exponent`` for ``r <= break_rank`` and
    ``c * r ** -tail_exponent`` beyond, with ``c`` chosen so the two
    segments meet continuously at the break.

    Parameters
    ----------
    n:
        Total number of ranks (distinct queries).
    head_exponent:
        Zipf exponent of the popular head (paper: 0.63).
    tail_exponent:
        Zipf exponent of the tail (paper: 1.24).
    break_rank:
        Last rank of the head segment (paper: 250).
    """

    def __init__(
        self,
        n: int,
        head_exponent: float = 0.63,
        tail_exponent: float = 1.24,
        break_rank: int = 250,
    ):
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        check_in_range("head_exponent", head_exponent, low=0.0)
        check_in_range("tail_exponent", tail_exponent, low=0.0)
        if break_rank < 1:
            raise ValidationError(f"break_rank must be >= 1, got {break_rank}")
        self.n = int(n)
        self.head_exponent = float(head_exponent)
        self.tail_exponent = float(tail_exponent)
        self.break_rank = min(int(break_rank), self.n)

        ranks = np.arange(1, self.n + 1, dtype=np.float64)
        weights = np.empty(self.n, dtype=np.float64)
        head = ranks[: self.break_rank]
        weights[: self.break_rank] = head**-self.head_exponent
        if self.break_rank < self.n:
            # Continuity constant: both forms agree at the break rank.
            b = float(self.break_rank)
            c = (b**-self.head_exponent) / (b**-self.tail_exponent)
            tail = ranks[self.break_rank :]
            weights[self.break_rank :] = c * tail**-self.tail_exponent
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        self._cdf[-1] = 1.0

    @property
    def pmf(self) -> np.ndarray:
        """Probability of each rank (index 0 is rank 1)."""
        return self._pmf.copy()

    def sample_ranks(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``size`` query ranks in ``{1..n}`` (1-based, like the paper)."""
        if size < 0:
            raise ValidationError(f"size must be >= 0, got {size}")
        gen = as_generator(rng)
        u = gen.random(size)
        return np.searchsorted(self._cdf, u, side="right").astype(np.int64) + 1

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TwoSegmentZipf(n={self.n}, head={self.head_exponent}, "
            f"tail={self.tail_exponent}, break_rank={self.break_rank})"
        )
