"""Pre-trust / power-node probability distributions.

The greedy-factor mixing (§6.3, inherited from PowerTrust/EigenTrust)
biases the aggregation iteration toward a distinguished node set::

    V(t+1) = (1 - alpha) * S^T V(t) + alpha * P

where ``P`` is a probability vector supported on the power nodes (or,
in EigenTrust, the pre-trusted peers).  :class:`PretrustVector` is that
``P`` with the bookkeeping to rebuild it as power nodes change.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

import numpy as np

from repro.errors import ValidationError

__all__ = ["PretrustVector"]


class PretrustVector:
    """A probability vector supported on a distinguished node set.

    Parameters
    ----------
    n:
        Total number of peers.
    members:
        The distinguished (power / pre-trusted) node ids.  Mass is split
        uniformly among them.  An empty member set degrades to the
        uniform distribution over all peers — mixing then regularizes
        like PageRank's teleport rather than silently disabling alpha.
    """

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        self.n = int(n)
        mem = frozenset(int(m) for m in members)
        for m in mem:
            if not 0 <= m < n:
                raise ValidationError(f"member {m} out of range [0, {n})")
        self._members: FrozenSet[int] = mem
        self._vector = self._build()

    def _build(self) -> np.ndarray:
        v = np.zeros(self.n)
        if self._members:
            share = 1.0 / len(self._members)
            for m in self._members:
                v[m] = share
        else:
            v[:] = 1.0 / self.n
        return v

    @property
    def vector(self) -> np.ndarray:
        """The probability vector ``P`` (copy)."""
        return self._vector.copy()

    def mix(self, aggregated: np.ndarray, alpha: float) -> np.ndarray:
        """Apply greedy-factor mixing: ``(1-alpha)*aggregated + alpha*P``.

        ``aggregated`` must already be a probability vector (the output
        of one ``S^T V`` cycle); the result then is one too.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
        agg = np.asarray(aggregated, dtype=np.float64)
        if agg.shape != (self.n,):
            raise ValidationError(
                f"aggregated vector must have shape ({self.n},), got {agg.shape}"
            )
        if alpha == 0.0:  # noqa: GT004 -- exact sentinel: alpha=0.0 is the literal 'mixing disabled' flag, set by callers, never computed
            return agg.copy()
        return (1.0 - alpha) * agg + alpha * self._vector

    def __repr__(self) -> str:  # pragma: no cover
        return f"PretrustVector(n={self.n}, members={sorted(self._members)})"

