"""EigenTrust (Kamvar et al., WWW'03) — the DHT-based baseline.

Two variants:

* :class:`EigenTrust` — the basic algorithm: iterate
  ``V <- (1-a) S^T V + a P`` with ``P`` uniform over a *static*
  pre-trusted peer set, until L1 convergence.  (GossipTrust differs in
  two ways: the gossiped evaluation of the product, and the *dynamic*
  power-node set replacing static pre-trust.)
* :class:`DistributedEigenTrust` — the secure distributed version: each
  peer's score is computed by ``replicas`` score managers located via a
  Chord DHT; the class accounts for the lookup hops and per-iteration
  messages the DHT mechanism costs, which is precisely the overhead an
  unstructured network cannot pay (§1's motivation for GossipTrust).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy import sparse

from repro.errors import ConvergenceError, ValidationError
from repro.network.dht import ChordRing
from repro.trust.matrix import TrustMatrix, as_csr
from repro.trust.pretrust import PretrustVector
from repro.utils.validation import check_in_range

__all__ = ["EigenTrustResult", "EigenTrust", "DistributedEigenTrust"]

#: L1 convergence tolerance between iterates
_TOL = 1e-10

#: iteration budget
_MAX_ITER = 10_000

#: the static pre-trusted peer ids (EigenTrust's P); empty degrades P
#: to uniform
_PRETRUSTED: Tuple[int, ...] = ()

#: Chord identifier width of the score managers' ring
_RING_BITS = 32


@dataclass
class EigenTrustResult:
    """Outcome of an EigenTrust computation."""

    vector: np.ndarray
    iterations: int
    converged: bool
    #: DHT accounting (zeros for the basic variant)
    dht_lookups: int = 0
    dht_hops: int = 0
    messages: int = 0


class EigenTrust:
    """Basic EigenTrust iteration with static pre-trusted peers.

    Parameters
    ----------
    S:
        Row-stochastic trust matrix.
    a:
        Pre-trust mixing weight (EigenTrust's ``a``; analogous to the
        paper's greedy factor).

    P is uniform over the pre-trusted peers ``_PRETRUSTED`` (all peers
    when empty).  Iterates until successive vectors differ by less than
    ``_TOL`` in L1, within ``_MAX_ITER`` iterations.
    """

    def __init__(
        self,
        S: Union[TrustMatrix, sparse.spmatrix, np.ndarray],
        *,
        a: float = 0.15,
    ):
        self._S = as_csr(S)
        self.n = self._S.shape[0]
        check_in_range("a", a, low=0.0, high=1.0, high_inclusive=False)
        self.a = float(a)
        self._P = PretrustVector(self.n, _PRETRUSTED)
        self._ST = self._S.T.tocsr()

    def compute(self) -> EigenTrustResult:
        """Iterate to the EigenTrust fixed point."""
        v = np.full(self.n, 1.0 / self.n)
        for it in range(1, _MAX_ITER + 1):
            v_new = self._ST @ v
            if self.a > 0:
                v_new = self._P.mix(v_new, self.a)
            resid = float(np.abs(v_new - v).sum())
            v = v_new
            if resid < _TOL:
                return EigenTrustResult(vector=v, iterations=it, converged=True)
        raise ConvergenceError(
            f"EigenTrust did not converge in {_MAX_ITER} iterations",
            steps=_MAX_ITER,
            residual=resid,
        )


class DistributedEigenTrust(EigenTrust):
    """EigenTrust with DHT-located score managers and overhead accounting.

    Each peer ``i``'s global score is maintained by ``replicas`` score
    managers: the owners of keys ``("score", i, r)`` on a Chord ring over
    all peers.  Per iteration, every peer with an opinion about ``i``
    must ship its contribution to all of i's managers — each shipment
    preceded (once, then cached) by a DHT lookup.  The returned result
    carries total lookups, ring hops, and per-iteration messages: the
    cost model that motivates gossip on unstructured networks.
    """

    def __init__(
        self,
        S: Union[TrustMatrix, sparse.spmatrix, np.ndarray],
        *,
        a: float = 0.15,
        replicas: int = 3,
    ):
        super().__init__(S, a=a)
        if replicas < 1:
            raise ValidationError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self.ring = ChordRing(range(self.n), bits=_RING_BITS)

    def compute(self) -> EigenTrustResult:
        """Run the iteration and model the DHT traffic it would cost."""
        base = super().compute()
        # Lookup phase: every rater resolves the managers of every peer
        # it rates, once (manager addresses are then cached).
        lookups = 0
        hops = 0
        raters, ratees = self._S.nonzero()
        manager_count = {}
        for i, j in zip(raters.tolist(), ratees.tolist()):
            for r in range(self.replicas):
                res = self.ring.lookup(i, ("score", j, r))
                lookups += 1
                hops += res.hops
            manager_count[j] = self.replicas
        # Steady-state phase: per iteration, each nonzero opinion is
        # shipped to each replica manager (addresses cached, no lookup).
        per_iter_messages = int(self._S.nnz) * self.replicas
        return EigenTrustResult(
            vector=base.vector,
            iterations=base.iterations,
            converged=base.converged,
            dht_lookups=lookups,
            dht_hops=hops,
            messages=per_iter_messages * base.iterations,
        )
