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

__all__ = ["TwoSegmentZipf"]

#: Zipf exponent of the popular head (paper: 0.63)
_HEAD_EXPONENT = 0.63

#: Zipf exponent of the tail (paper: 1.24)
_TAIL_EXPONENT = 1.24

#: last rank of the head segment (paper: 250)
_BREAK_RANK = 250


class TwoSegmentZipf:
    """Piecewise Zipf over ranks ``1..n`` with a break at ``break_rank``.

    ``weight(r) = r ** -_HEAD_EXPONENT`` for ``r <= break_rank`` and
    ``c * r ** -_TAIL_EXPONENT`` beyond, with ``c`` chosen so the two
    segments meet continuously at the break.  ``break_rank`` is
    ``_BREAK_RANK`` clipped to ``n``.

    Parameters
    ----------
    n:
        Total number of ranks (distinct queries).
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self.break_rank = min(_BREAK_RANK, self.n)

        ranks = np.arange(1, self.n + 1, dtype=np.float64)
        weights = np.empty(self.n, dtype=np.float64)
        head = ranks[: self.break_rank]
        weights[: self.break_rank] = head**-_HEAD_EXPONENT
        if self.break_rank < self.n:
            # Continuity constant: both forms agree at the break rank.
            b = float(self.break_rank)
            c = (b**-_HEAD_EXPONENT) / (b**-_TAIL_EXPONENT)
            tail = ranks[self.break_rank :]
            weights[self.break_rank :] = c * tail**-_TAIL_EXPONENT
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
            f"TwoSegmentZipf(n={self.n}, break_rank={self.break_rank})"
        )
