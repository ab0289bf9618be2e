"""Structured-overlay aggregation — the §7 acceleration.

"With minor modifications, the system can perform even better in a
structured P2P system.  The gossip steps and reputation aggregation
process ... can be further accelerated by the fast hashing and search
mechanisms built in DHT-based overlay networks."

On a DHT the random-partner gossip can be replaced by a *deterministic
hypercube all-reduce* over the ring ordering: in round ``k`` every node
exchanges its partial vector with the node ``2^k`` positions away, so
after ``ceil(log2 n)`` rounds every node holds the exact component-wise
sum — no epsilon, no convergence detection, no halving.  The price is
exactly the structure the paper's unstructured setting lacks: a stable
ring ordering every peer agrees on.

The engine mirrors :class:`~repro.gossip.engine.SynchronousGossipEngine`'s
``run_cycle`` contract so the two plug into the same experiments.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.gossip.base import CycleEngine, GossipCycleResult, TrustInput, coerce_csr
from repro.network.dht import ChordRing
from repro.utils.validation import check_vector

__all__ = ["StructuredAggregationEngine"]

#: identifier width of the ring that orders the nodes (ordering only)
_RING_BITS = 32


class StructuredAggregationEngine(CycleEngine):
    """Exact all-reduce aggregation over a Chord ring ordering.

    Parameters
    ----------
    n:
        Number of peers (all assumed live; churn on the structured
        variant would require ring stabilization, which is the paper's
        argument for gossip in the first place).

    The ring ordering comes from a :class:`~repro.network.dht.ChordRing`
    with ``_RING_BITS``-bit identifiers.
    """

    name = "structured"

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValidationError(f"aggregation needs n >= 2 nodes, got {n}")
        self.n = int(n)
        self.ring = ChordRing(range(self.n), bits=_RING_BITS)
        #: ring-ordered node ids; round k pairs index i with i XOR-ish 2^k
        self._order = np.asarray(self.ring.nodes, dtype=np.int64)
        #: total point-to-point exchanges performed
        self.messages = 0

    @property
    def rounds_per_cycle(self) -> int:
        """Deterministic round count: ``ceil(log2 n)``."""
        return int(math.ceil(math.log2(self.n)))

    def run_cycle(
        self,
        S: TrustInput,
        v: np.ndarray,
    ) -> GossipCycleResult:
        """Aggregate ``S^T v`` exactly in ``ceil(log2 n)`` rounds.

        State per node is its partial sum vector; round ``k`` adds the
        vector of the partner ``2^k`` ring positions away (indices taken
        modulo n, which implements the standard recursive-doubling
        all-reduce up to a final correction round for non-powers of 2 —
        the correction is folded into the same round count here because
        partner distance wraps).
        """
        mat = coerce_csr(S, self.n)
        v = check_vector("v", v, size=self.n)
        exact = np.asarray(mat.T @ v).ravel()
        san = self.sanitizer
        if san is not None:
            san.begin_cycle(self.name)

        # Node i's initial partial vector is its weighted row v_i * s_i.
        # X[p] is the partial vector of the node at ring position p.
        X = np.asarray((sparse.diags(v) @ mat).todense())[self._order]
        rounds = self.rounds_per_cycle
        n = self.n
        for k in range(rounds):
            shift = 1 << k
            # Everyone receives the partner's current partial in parallel.
            X = X + np.roll(X, -shift, axis=0)
            self.messages += n
        # After ceil(log2 n) doublings each row sums a window of
        # 2^rounds >= n consecutive ring positions — wrapping means some
        # contributions are counted twice for non-powers of two, so a
        # final exact correction pass subtracts the overlap.
        window = 1 << rounds
        overlap = window - n
        if overlap > 0:
            base = np.asarray((sparse.diags(v) @ mat).todense())[self._order]
            prefix = np.cumsum(
                np.vstack([base, base]), axis=0
            )  # doubled array prefix sums
            # Node at position p double-counts positions p..p+overlap-1
            # (the wrap of its window); subtract that slice sum.
            for p in range(n):
                lo, hi = p, p + overlap
                seg = prefix[hi - 1] - (prefix[lo - 1] if lo > 0 else 0)
                X[p] -= seg
        if san is not None:
            # The all-reduce is exact by construction: every ring
            # position's partial must match S^T v (modulo float
            # reassociation), and the window-overlap correction must
            # not have produced NaN/inf.
            san.check_finite("all-reduce partials", X, step=rounds)
            san.check_allclose(
                "per-node all-reduce result", X, exact[None, :], step=rounds
            )

        estimates = X  # every row should now equal the exact sum
        disagreement = float(np.max(np.abs(estimates - exact[None, :])))
        return GossipCycleResult(
            v_next=exact.copy(),
            exact=exact,
            steps=rounds,
            gossip_error=0.0,
            converged=True,
            mode=self.name,
            node_disagreement=disagreement,
            messages_sent=n * rounds,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"StructuredAggregationEngine(n={self.n}, rounds={self.rounds_per_cycle})"
