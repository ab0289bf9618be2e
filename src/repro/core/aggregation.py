"""Exact (noise-free) reputation aggregation — the ground-truth reference.

Runs the same cycle structure as GossipTrust — Eq. 2 matrix-vector
products, greedy-factor mixing, dynamic power-node re-selection, delta
convergence — but with *exact* products instead of gossiped estimates.
The result is the "calculated" global reputation ``v_i`` of Eq. 8
against which gossiped scores ``u_i`` are measured, and doubles as the
centralized baseline for the accuracy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Union

import numpy as np
from scipy import sparse

from repro.core.config import GossipTrustConfig
from repro.core.power_nodes import PowerNodeSelector
from repro.errors import ConvergenceError
from repro.gossip.convergence import CycleConvergenceDetector
from repro.trust.matrix import TrustMatrix, as_csr
from repro.trust.pretrust import PretrustVector

__all__ = ["ExactAggregation", "exact_global_reputation"]


@dataclass
class ExactAggregation:
    """Result of an exact aggregation run."""

    #: converged global reputation vector
    vector: np.ndarray
    #: aggregation cycles executed (d in the paper)
    cycles: int
    #: whether the delta criterion fired within the cycle budget
    converged: bool
    #: power nodes selected FROM this result, for the next update round
    power_nodes: FrozenSet[int]
    #: residual (average relative error) at the last cycle
    residual: float


def exact_global_reputation(
    S: Union[TrustMatrix, sparse.spmatrix, np.ndarray],
    config: Optional[GossipTrustConfig] = None,
    *,
    power_nodes: Optional[FrozenSet[int]] = None,
    raise_on_budget: bool = True,
) -> ExactAggregation:
    """Iterate ``V <- (1-alpha) S^T V + alpha P`` exactly until delta.

    ``P`` is the distribution over ``power_nodes``, *fixed for the whole
    aggregation* — the paper selects power nodes "after each round of
    global reputation computation ... for the next round of reputation
    updating" (§3), i.e. between aggregations, never mid-aggregation.
    The returned ``power_nodes`` field holds the *new* selection derived
    from the converged vector, ready for the next round.  With
    ``alpha = 0`` this is plain power iteration on ``S^T`` and converges
    to the principal eigenvector.

    Parameters
    ----------
    S:
        The normalized trust matrix (any accepted form).
    config:
        Parameters (n must match S); defaults to
        ``GossipTrustConfig(n=S.n)`` with paper defaults otherwise.
    power_nodes:
        Power nodes carried over from the previous aggregation round
        (``None`` or empty: ``P`` degrades to uniform).
    raise_on_budget:
        Raise :class:`ConvergenceError` when ``max_cycles`` is exhausted.
    """
    mat = as_csr(S)
    n = mat.shape[0]
    if config is None:
        config = GossipTrustConfig(n=n)
    if config.n != n:
        config = config.with_updates(n=n)

    ST = mat.T.tocsr()
    selector = PowerNodeSelector(n, config.max_power_nodes if config.alpha > 0 else 0)
    mixing = PretrustVector(n, power_nodes or ())
    detector = CycleConvergenceDetector(config.delta)
    v = np.full(n, 1.0 / n)
    detector.update(v)  # V(0) is the comparison base for cycle 1
    converged = False
    cycles = 0
    for cycles in range(1, config.max_cycles + 1):
        v_new = ST @ v
        if config.alpha > 0:
            v_new = mixing.mix(v_new, config.alpha)
        if detector.update(v_new):
            v = v_new
            converged = True
            break
        v = v_new
    if not converged and raise_on_budget:
        raise ConvergenceError(
            f"exact aggregation did not converge in {config.max_cycles} cycles "
            f"(delta={config.delta})",
            steps=config.max_cycles,
            residual=detector.last_residual,
        )
    next_power = selector.select(v)
    return ExactAggregation(
        vector=v,
        cycles=cycles,
        converged=converged,
        power_nodes=next_power,
        residual=detector.last_residual,
    )
