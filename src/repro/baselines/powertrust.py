"""PowerTrust (Zhou & Hwang, TPDS'07) — the authors' prior DHT system.

PowerTrust's two distinctive mechanisms, both reproduced here:

* **Power nodes with greedy factor alpha** — the top-``m`` reputation
  peers get a teleport share of the random walk, exactly the mechanism
  GossipTrust inherits (our :mod:`repro.core.power_nodes`).
* **Look-ahead random walk (LRW)** — each peer aggregates not only its
  neighbors' first-hand rows but their one-hop look-ahead, which
  squares the effective chain per iteration and roughly halves the
  cycle count: the iteration runs on ``S @ S`` instead of ``S``.

PowerTrust runs on a DHT; like the distributed EigenTrust baseline, the
class accounts for the DHT traffic (here, fetching each neighbor's row
to build the look-ahead costs one lookup per out-edge per refresh).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy import sparse

from repro.core.power_nodes import PowerNodeSelector
from repro.errors import ConvergenceError
from repro.network.dht import ChordRing
from repro.trust.matrix import TrustMatrix, as_csr
from repro.utils.validation import check_in_range

__all__ = ["PowerTrustResult", "PowerTrust"]

#: L1 convergence tolerance between iterates
_TOL = 1e-10

#: iteration budget
_MAX_ITER = 10_000

#: fraction of peers selected as power nodes
_POWER_FRACTION = 0.01


@dataclass
class PowerTrustResult:
    """Outcome of a PowerTrust computation."""

    vector: np.ndarray
    iterations: int
    converged: bool
    power_nodes: frozenset
    dht_lookups: int
    dht_hops: int


class PowerTrust:
    """PowerTrust: LRW-accelerated power iteration with power nodes.

    Parameters
    ----------
    S:
        Row-stochastic trust matrix.
    alpha:
        Greedy factor (paper default 0.15).
    lookahead:
        Enable the look-ahead random walk (iterate on ``S @ S``).
    ring_bits:
        Chord identifier width for the overhead model (None disables
        DHT accounting entirely — pure-math mode).

    ``_POWER_FRACTION`` (1%) of the peers become power nodes.
    """

    def __init__(
        self,
        S: Union[TrustMatrix, sparse.spmatrix, np.ndarray],
        *,
        alpha: float = 0.15,
        lookahead: bool = True,
        ring_bits: Optional[int] = 32,
    ):
        self._S = as_csr(S)
        self.n = self._S.shape[0]
        check_in_range("alpha", alpha, low=0.0, high=1.0, high_inclusive=False)
        self.alpha = float(alpha)
        self.lookahead = bool(lookahead)
        q = max(1, int(self.n * _POWER_FRACTION)) if alpha > 0 else 0
        self._selector = PowerNodeSelector(self.n, q)
        self._ring = ChordRing(range(self.n), bits=ring_bits) if ring_bits else None
        mat = (self._S @ self._S).tocsr() if self.lookahead else self._S
        self._MT = mat.T.tocsr()

    def compute(self) -> PowerTrustResult:
        """Run PowerTrust to convergence.

        The power-node set is fixed per aggregation (selected from the
        converged vector for the next round), matching the GossipTrust
        core semantics — both papers share this design.
        """
        n = self.n
        v = np.full(n, 1.0 / n)
        mixing = self._selector.pretrust()  # uniform before the first selection
        resid = float("inf")
        converged = False
        iters = 0
        for iters in range(1, _MAX_ITER + 1):
            v_new = self._MT @ v
            if self.alpha > 0:
                v_new = mixing.mix(v_new, self.alpha)
            total = v_new.sum()
            if total <= 0:
                raise ConvergenceError("PowerTrust iteration lost all mass")
            v_new /= total
            resid = float(np.abs(v_new - v).sum())
            v = v_new
            if resid < _TOL:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"PowerTrust did not converge in {_MAX_ITER} iterations",
                steps=_MAX_ITER,
                residual=resid,
            )
        power = self._selector.select(v)

        lookups = 0
        hops = 0
        if self._ring is not None:
            # LRW construction cost: each peer fetches the stored row of
            # every peer it rates (one DHT lookup per out-edge).
            raters, ratees = self._S.nonzero()
            for i, j in zip(raters.tolist(), ratees.tolist()):
                res = self._ring.lookup(int(i), ("row", int(j)))
                lookups += 1
                hops += res.hops
        return PowerTrustResult(
            vector=v,
            iterations=iters,
            converged=converged,
            power_nodes=power,
            dht_lookups=lookups,
            dht_hops=hops,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PowerTrust(n={self.n}, alpha={self.alpha}, "
            f"lookahead={self.lookahead})"
        )
