"""The GossipTrust system — gossiped global reputation aggregation.

Orchestrates the full loop of Fig. 1(b):

1. initialize ``V(0) = (1/n, ..., 1/n)``;
2. per aggregation cycle, run the gossip engine until its termination
   criterion, yielding every node's estimate of ``S^T V(t)``;
3. apply greedy-factor mixing toward the round's (fixed) power nodes;
4. repeat until the average relative error between consecutive cycle
   vectors drops below delta;
5. select the next round's power nodes from the converged vector.

The gossip work is delegated to a pluggable
:class:`~repro.gossip.base.CycleEngine` built by
:func:`~repro.gossip.factory.make_engine` from ``config.engine`` —
the vectorized ``"sync"`` engine by default, the message-level
``"message"``/``"async"`` engines when fault injection matters, or the
DHT-ordered ``"structured"`` all-reduce.  Every cycle is recorded in a
:class:`~repro.metrics.telemetry.CycleTelemetry` (steps, messages,
mass loss, wall time), and an ``on_cycle`` callback exposes the stream
to callers as it happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Union

import numpy as np
from scipy import sparse

from repro.core.aggregation import ExactAggregation, exact_global_reputation
from repro.core.config import GossipTrustConfig
from repro.core.power_nodes import PowerNodeSelector
from repro.errors import ConvergenceError, ValidationError
from repro.gossip.base import CycleEngine, GossipCycleResult
from repro.gossip.convergence import CycleConvergenceDetector, average_relative_error
from repro.gossip.factory import make_engine
from repro.metrics.telemetry import CycleRecord, CycleTelemetry, Stopwatch
from repro.trust.matrix import TrustMatrix, as_csr
from repro.trust.pretrust import PretrustVector
from repro.types import ReputationVector
from repro.utils.logging import get_logger
from repro.utils.rng import RngStreams, SeedLike

__all__ = ["GossipTrustResult", "GossipTrust"]

_log = get_logger("core.gossiptrust")


@dataclass
class GossipTrustResult:
    """Result of a full GossipTrust aggregation run.

    ``vector`` is the converged gossiped global reputation.  When the
    run computed the exact-aggregation oracle (``compute_reference``),
    ``aggregation_error``/``exact_reference`` report the gossip noise
    against it; production runs that skip the oracle leave them
    ``None``.

    Results are *versioned*: ``epoch`` is the caller-supplied service
    epoch the run belongs to (0 for standalone runs) and
    ``warm_started`` records whether the run iterated from a previous
    reputation vector instead of uniform — together they are the
    staleness stamp a serving layer attaches to every score it hands
    out.
    """

    vector: np.ndarray
    cycles: int
    converged: bool
    total_gossip_steps: int
    #: power nodes selected FROM this round's result (for the next round)
    power_nodes: FrozenSet[int]
    cycle_results: List[GossipCycleResult]
    #: mean per-cycle gossip error
    mean_gossip_error: float
    #: average relative error of the final vector vs the exact reference
    #: (None when the oracle was skipped)
    aggregation_error: Optional[float] = None
    #: the exact reference run (same config, no gossip noise; None when
    #: the oracle was skipped)
    exact_reference: Optional[ExactAggregation] = None
    #: per-cycle telemetry recorded during the run
    telemetry: Optional[CycleTelemetry] = None
    #: service epoch this run computed (0 for standalone runs)
    epoch: int = 0
    #: whether the run warm-started from a previous reputation vector
    warm_started: bool = False

    @property
    def steps_per_cycle(self) -> List[int]:
        """Gossip step count of each aggregation cycle."""
        return [r.steps for r in self.cycle_results]

    def reputation(self) -> ReputationVector:
        """The converged vector as a :class:`~repro.types.ReputationVector`."""
        return ReputationVector(
            scores={i: float(s) for i, s in enumerate(self.vector)},
            cycle=self.cycles,
        )


class GossipTrust:
    """The GossipTrust reputation system.

    Parameters
    ----------
    trust:
        The normalized local trust matrix ``S`` (or anything
        :class:`TrustMatrix` accepts via its constructors upstream).
    config:
        Design parameters; ``config.n`` must match the matrix.
    engine:
        Optional cycle engine — a ready :class:`CycleEngine` instance,
        a registered engine name, or ``None`` to build ``config.engine``
        via :func:`make_engine`.

    Example
    -------
    >>> import numpy as np
    >>> from repro.trust.matrix import TrustMatrix
    >>> from repro.core import GossipTrust, GossipTrustConfig
    >>> raw = np.array([[0, 3, 1], [2, 0, 2], [1, 1, 0]], dtype=float)
    >>> S = TrustMatrix.from_dense_raw(raw)
    >>> system = GossipTrust(S, GossipTrustConfig(n=3, alpha=0.0, seed=7))
    >>> result = system.run()
    >>> bool(result.converged)
    True
    """

    def __init__(
        self,
        trust: Union[TrustMatrix, np.ndarray, sparse.spmatrix],
        config: Optional[GossipTrustConfig] = None,
        *,
        engine: Optional[Union[CycleEngine, str]] = None,
        power_nodes: Optional[FrozenSet[int]] = None,
        rng: SeedLike = None,
    ) -> None:
        self.S = trust if isinstance(trust, TrustMatrix) else TrustMatrix(as_csr(trust))
        n = self.S.n
        self.config = config if config is not None else GossipTrustConfig(n=n)
        if self.config.n != n:
            raise ValidationError(
                f"config.n={self.config.n} does not match trust matrix n={n}"
            )
        streams = RngStreams(rng if rng is not None else self.config.seed)
        if engine is None or isinstance(engine, str):
            engine = make_engine(
                engine if engine is not None else self.config.engine,
                self.config,
                rng=streams,
            )
        self.engine = engine
        self.selector = PowerNodeSelector(
            n, self.config.max_power_nodes if self.config.alpha > 0 else 0
        )
        #: power nodes carried into the *current* aggregation round;
        #: fixed while cycles run, re-selected when a round completes
        self.power_nodes: FrozenSet[int] = frozenset(power_nodes or ())
        self._mixing = PretrustVector(n, self.power_nodes)

    def set_power_nodes(self, power_nodes: FrozenSet[int]) -> None:
        """Install the power-node set for the next aggregation round."""
        self.power_nodes = frozenset(power_nodes)
        self._mixing = PretrustVector(self.config.n, self.power_nodes)

    def run(
        self,
        *,
        v0: Optional[np.ndarray] = None,
        epoch: int = 0,
        raise_on_budget: bool = True,
        compute_reference: Optional[bool] = None,
        on_cycle: Optional[Callable[[CycleRecord], None]] = None,
    ) -> GossipTrustResult:
        """Run one aggregation round (cycles to delta convergence).

        Power nodes stay fixed for the whole round (§3: they are
        identified "after each round of global reputation computation
        ... for the next round").  On completion the selector picks the
        next round's power nodes from the converged vector, installs
        them on this system, and reports them in the result.

        Parameters
        ----------
        v0:
            Warm-start reputation vector (normalized internally).  The
            paper initializes every round at uniform ``1/n``; a
            long-lived service instead seeds the round with the previous
            epoch's converged vector, so a near-converged network (few
            trust rows changed) re-converges in far fewer cycles —
            iterating ``V(t+1) = S^T V(t)`` from a point already near
            the stationary distribution.  ``None`` keeps the paper's
            uniform cold start.
        epoch:
            Version stamp copied into the result (see
            :class:`GossipTrustResult`); purely bookkeeping.
        raise_on_budget:
            Raise :class:`ConvergenceError` if ``max_cycles`` is
            exhausted.
        compute_reference:
            Compute the exact-aggregation oracle for error reporting
            (O(n * cycles) extra work).  ``None`` uses
            ``config.compute_reference``; ``False`` leaves
            ``aggregation_error``/``exact_reference`` as ``None`` and
            performs no call into :mod:`repro.core.aggregation`.
        on_cycle:
            Callback invoked with a
            :class:`~repro.metrics.telemetry.CycleRecord` after every
            cycle — a lightweight hook for progress display or custom
            metrics.

        The run records every cycle in a fresh
        :class:`~repro.metrics.telemetry.CycleTelemetry`, attached to
        the result.
        """
        cfg = self.config
        n = cfg.n
        detector = CycleConvergenceDetector(cfg.delta)
        recorder = CycleTelemetry()
        warm_started = v0 is not None
        if v0 is None:
            v = np.full(n, 1.0 / n)
        else:
            v = np.asarray(v0, dtype=np.float64).copy()
            if v.ndim != 1 or v.size != n:
                raise ValidationError(
                    f"v0 must be a length-{n} vector, got shape {v.shape}"
                )
            if np.any(v < 0) or not np.all(np.isfinite(v)):
                raise ValidationError("v0 must be finite and non-negative")
            total0 = v.sum()
            if not total0 > 0:
                raise ValidationError("v0 must carry positive reputation mass")
            v /= total0
        detector.update(v)
        cycle_results: List[GossipCycleResult] = []
        converged = False
        cycles = 0
        for cycles in range(1, cfg.max_cycles + 1):
            watch = Stopwatch()
            res = self.engine.run_cycle(self.S, v)
            wall = watch.elapsed()
            v_new = res.v_next
            if cfg.alpha > 0:
                v_new = self._mixing.mix(v_new, cfg.alpha)
            # Gossip noise can leave the vector sum slightly off 1;
            # renormalize so cycles compose as probability vectors.  A
            # non-positive sum means the cycle destroyed all reputation
            # mass (every later cycle would iterate on a zero vector),
            # so fail loudly naming the cycle instead of silently
            # skipping renormalization.
            total = v_new.sum()
            if not total > 0:
                raise ConvergenceError(
                    f"cycle {cycles} produced a non-positive reputation mass "
                    f"(sum={total!r}); gossip lost all mass — check fault "
                    f"rates and engine configuration",
                    steps=cycles,
                    residual=float(total),
                )
            v_new = v_new / total
            cycle_results.append(res)
            record = recorder.record(cycles, res, wall_time=wall)
            if on_cycle is not None:
                on_cycle(record)
            _log.debug(
                "cycle %d: %d gossip steps, gossip_error=%.3g",
                cycles,
                res.steps,
                res.gossip_error,
            )
            if detector.update(v_new):
                v = v_new
                converged = True
                break
            v = v_new
        if not converged and raise_on_budget:
            raise ConvergenceError(
                f"GossipTrust did not converge in {cfg.max_cycles} cycles "
                f"(delta={cfg.delta})",
                steps=cfg.max_cycles,
                residual=detector.last_residual,
            )
        if compute_reference is None:
            compute_reference = cfg.compute_reference
        exact: Optional[ExactAggregation] = None
        aggregation_error: Optional[float] = None
        if compute_reference:
            exact = exact_global_reputation(
                self.S, cfg, power_nodes=self.power_nodes, raise_on_budget=False
            )
            aggregation_error = average_relative_error(v, exact.vector)
        next_power = self.selector.select(v)
        self.set_power_nodes(next_power)
        gossip_errors = [r.gossip_error for r in cycle_results]
        return GossipTrustResult(
            vector=v,
            cycles=cycles,
            converged=converged,
            total_gossip_steps=sum(r.steps for r in cycle_results),
            power_nodes=next_power,
            cycle_results=cycle_results,
            mean_gossip_error=float(np.mean(gossip_errors)) if gossip_errors else 0.0,
            aggregation_error=aggregation_error,
            exact_reference=exact,
            telemetry=recorder,
            epoch=int(epoch),
            warm_started=warm_started,
        )
