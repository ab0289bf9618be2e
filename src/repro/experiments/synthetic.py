"""Synthetic trust-matrix generation shared by the experiments.

§6.1's base setting: a network of ``n`` nodes whose per-node feedback
counts follow the bounded power law (d_max = 200, d_avg = 20), rating
uniformly-chosen partners with random positive scores.  This produces
the "arbitrary trust matrix" on which convergence and error are
measured when no threat model is in play.

The matrix is built *streaming*: final CSR arrays are preallocated
from the sampled feedback counts and filled one row block at a time —
partner draws, within-row deduplication, scores and the Eq. 1 row
normalization all run vectorized over the block, with no Python-list
or dense intermediate anywhere.  Peak construction memory is the CSR
output plus O(_BLOCK_ROWS * d_avg) transients, which is what lets the
n = 10^6 benchmark tier build its ~2 * 10^7-edge matrix in a few
hundred MB instead of gigabytes of list overhead.

:func:`des_substrate` wraps such a matrix with the seeded overlay,
simulator and transport that the message-level fault experiments
gossip on.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse

from repro.distributions.powerlaw import FeedbackCountDistribution
from repro.errors import ValidationError
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngStreams, SeedLike, as_generator

__all__ = ["synthetic_trust_matrix", "des_substrate"]

#: rows filled per streaming block (~1.3M draws at d_avg = 20); it
#: changes memory traffic only, never the distribution
_BLOCK_ROWS = 65_536


def synthetic_trust_matrix(n: int, *, rng: SeedLike = None) -> TrustMatrix:
    """A power-law-feedback trust matrix over ``n`` honest peers.

    Each rater ``i`` draws its feedback count ``d_i`` from the bounded
    power law, rates ``d_i`` distinct uniform partners, and assigns each
    a uniform(0, 1] raw score; Eq. 1 normalization follows.
    """
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    gen = as_generator(rng)
    counts = np.minimum(FeedbackCountDistribution().sample_counts(n, gen), n - 1)
    total = int(counts.sum())
    indptr64 = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr64[1:])
    idx_dt = np.int32 if max(n, total) < np.iinfo(np.int32).max else np.int64
    indices = np.empty(total, dtype=idx_dt)
    data = np.empty(total, dtype=np.float64)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        c = counts[lo:hi]
        tb = int(c.sum())
        if tb == 0:  # pragma: no cover - counts are >= 1 by construction
            continue
        rows = np.repeat(np.arange(lo, hi, dtype=np.int64), c)
        starts = indptr64[lo:hi] - indptr64[lo]  # row r's draws: starts[r - lo] on
        # Distinct partners per row, vectorized: draw everything at
        # once, then redraw only the within-row duplicates until none
        # remain.  Keys sort row-major, so row r owns the same positions
        # in the sorted order as in the draws, and a round re-sorts only
        # the rows that held a duplicate: a row without one keeps its
        # draws, its order and its distinctness.  A row of d_i close to
        # n - 1 is a coupon collector (the n = 128 tail runs for dozens
        # of rounds), so re-sorting the whole block each round would be
        # the generator's main cost.
        cand = gen.integers(0, n - 1, size=tb)
        key = rows * (n - 1) + cand
        order = np.argsort(key, kind="stable")
        ranked = order  # the sorted positions of the rows checked this round
        while True:
            ranked_keys = key[ranked]
            dup = ranked_keys[1:] == ranked_keys[:-1]
            if not dup.any():
                break
            bad = ranked[1:][dup]
            cand[bad] = gen.integers(0, n - 1, size=bad.size)
            key[bad] = rows[bad] * (n - 1) + cand[bad]
            # the draw positions of the rows that held a duplicate
            dirty = np.unique(rows[bad]) - lo
            length = c[dirty]
            seg = np.arange(int(length.sum())) + np.repeat(
                starts[dirty] - (np.cumsum(length) - length), length
            )
            ranked = seg[np.argsort(key[seg], kind="stable")]
            order[seg] = ranked
        # Row-major sorted draw order; the self-exclusion shift is
        # order-preserving per row, so columns land sorted in the CSR.
        part = cand[order]
        part[part >= rows] += 1  # rows[order] == rows (keys group by row)
        s0, s1 = int(indptr64[lo]), int(indptr64[hi])
        indices[s0:s1] = part
        # uniform in (0, 1]: zero scores mean "no feedback"
        block_vals = 1.0 - gen.random(tb)
        # Eq. 1 row normalization, in place (every row sums to > 0).
        inv = 1.0 / np.add.reduceat(block_vals, indptr64[lo:hi] - s0)
        block_vals *= np.repeat(inv, c)
        data[s0:s1] = block_vals
    raw = sparse.csr_matrix(
        (data, indices, indptr64.astype(idx_dt, copy=False)), shape=(n, n)
    )
    return TrustMatrix(raw, _validated=True)


def des_substrate(
    n: int, seed: int, *, loss_rate: float
) -> Tuple[RngStreams, TrustMatrix, Simulator, Overlay, Transport]:
    """The seeded substrate a message-level fault experiment gossips on.

    Returns ``(streams, S, sim, overlay, transport)``: a synthetic trust
    matrix and an overlay on a Gnutella-like topology, on a fresh
    simulator, with a unit-latency transport at ``loss_rate``.  The
    streams are spawned in this order, so the engine and fault plan a
    caller builds next draw from the same positions every time.
    """
    streams = RngStreams(seed)
    S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
    sim = Simulator()
    topo = gnutella_like(n, rng=streams.get("topology"))
    overlay = Overlay(topo, rng=streams.get("overlay"))
    transport = Transport(sim, latency=1.0, loss_rate=loss_rate, rng=streams.get("net"))
    return streams, S, sim, overlay, transport
