"""Dynamic power-node selection.

"GossipTrust will identify power nodes for the next round of reputation
updating" (§3); "the power nodes are dynamically chosen after each
reputation aggregation" (§2).  Power nodes are simply the most reputable
peers of the moment — the PowerTrust insight being that feedback in real
systems is power-law distributed, so a small head of nodes carries most
of the system's trust information and is worth weighting.

The selector ranks by current reputation and takes the top ``q``.
"""

from __future__ import annotations

from typing import FrozenSet

import numpy as np

from repro.errors import ValidationError
from repro.trust.pretrust import PretrustVector

__all__ = ["PowerNodeSelector"]


class PowerNodeSelector:
    """Selects the top-``q`` reputation nodes as power nodes.

    Parameters
    ----------
    n:
        Total number of peers.
    max_power_nodes:
        The cap ``q`` (Table 2: 1% of n).  Zero disables selection —
        :meth:`select` then returns an empty set and the corresponding
        pretrust vector degrades to uniform.
    """

    def __init__(self, n: int, max_power_nodes: int) -> None:
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        if max_power_nodes < 0 or max_power_nodes > n:
            raise ValidationError(
                f"max_power_nodes must be in [0, {n}], got {max_power_nodes}"
            )
        self.n = int(n)
        self.q = int(max_power_nodes)
        self._current: FrozenSet[int] = frozenset()
        #: how many selection rounds have run
        self.rounds = 0

    def select(self, reputation: np.ndarray) -> FrozenSet[int]:
        """Re-select power nodes from a reputation vector.

        Parameters
        ----------
        reputation:
            Current global reputation estimates, length n.

        Returns
        -------
        frozenset of node ids (size <= q).
        """
        v = np.asarray(reputation, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValidationError(f"reputation must have shape ({self.n},)")
        if self.q == 0:
            new: FrozenSet[int] = frozenset()
        else:
            # argsort is ascending; ties broken by lower node id for
            # determinism (stable sort on (-score, id)).
            order = np.lexsort((np.arange(self.n), -v))
            top = [int(i) for i in order[: self.q] if np.isfinite(v[i])]
            new = frozenset(top)
        self._current = new
        self.rounds += 1
        return new

    def pretrust(self) -> PretrustVector:
        """The mixing distribution ``P`` over the current power nodes."""
        return PretrustVector(self.n, self._current)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PowerNodeSelector(n={self.n}, q={self.q}, current={len(self._current)})"
