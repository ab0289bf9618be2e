"""The benchmark's workloads: set-up, one closed-loop operation, checks.

Every workload builds its inputs from ``RngStreams(seed)`` and hands the
library only the generated matrices and events.  An operation makes its
calls into the public API through a ``timed`` callable the caller
passes (``result, wall = timed(fn, *args)``), so the correctness checks
each operation runs afterwards stay outside the timed region and
outside any trace.

Sizes are constructor arguments: the registry builds the full-size
workloads, and the self-tests build the same classes at a tiny size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.aggregation import exact_global_reputation
from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust, GossipTrustResult
from repro.experiments import synthetic
from repro.gossip.convergence import average_relative_error
from repro.service import ReputationService
from repro.service.simulate import populate_ledger
from repro.trust.matrix import TrustMatrix
from repro.types import TransactionOutcome
from repro.utils.rng import RngStreams

__all__ = ["Op", "Workload", "WORKLOADS"]

#: ``timed(fn, *args, **kwargs) -> (result, wall seconds)``
Timed = Callable[..., Tuple[Any, float]]


@dataclass
class Op:
    """What one timed operation did, and whether its output was correct."""

    #: wall seconds of the timed aggregation call
    wall_s: float
    #: aggregation cycles the call ran
    cycles: int
    #: the reputation vector the call returned or published
    vector: np.ndarray
    #: wall seconds of each aggregation cycle (one per-cycle average per
    #: service epoch, whose cycles the service does not expose)
    cycle_walls: List[float] = field(default_factory=list)
    #: workload-specific counts (messages, bytes, rows patched, ...)
    counters: Dict[str, float] = field(default_factory=dict)
    #: why the output failed its check; None when it passed
    error: Optional[str] = None


def _system_seed(streams: RngStreams) -> int:
    """An engine seed drawn from its own stream, independent of the inputs."""
    return int(streams.get("system").integers(0, 2**31 - 1))


def _run_marked(system: GossipTrust, **kwargs: Any) -> Tuple[GossipTrustResult, List[float]]:
    """``system.run`` plus the wall time of each cycle, from its ``on_cycle`` hook."""
    marks = [time.perf_counter()]
    result = system.run(on_cycle=lambda _record: marks.append(time.perf_counter()), **kwargs)
    return result, np.diff(marks).tolist()


class Workload:
    """One benchmark workload; subclasses implement ``setup`` and ``op``."""

    #: nominal seconds of one operation; sizes the fixed-count traced run
    op_s = 1.0

    def setup(self, seed: int) -> Any:
        """Build the inputs and the system from ``seed`` (no warm-up)."""
        raise NotImplementedError

    def op(self, state: Any, index: int, timed: Timed) -> Op:
        """Run operation ``index`` in the closed loop and check its output."""
        raise NotImplementedError

    def trace_ops(self, seconds: float) -> int:
        """Operations per phase of a traced run: half the budget each."""
        return max(2, round(seconds / 2.0 / self.op_s))


@dataclass
class _ColdState:
    pool: List[TrustMatrix]
    config: GossipTrustConfig
    #: exact fixed point per pool index (uniform P: cold runs have no power nodes)
    exact: Dict[int, np.ndarray] = field(default_factory=dict)
    #: first vector computed per pool index, for the repeat-determinism check
    first: Dict[int, np.ndarray] = field(default_factory=dict)


class ColdRuns(Workload):
    """Cold ``GossipTrust.run`` calls, each on a fresh system, over a matrix pool.

    Operation ``i`` aggregates pool matrix ``i % pool``; a repeated
    matrix must give a bitwise-identical vector.
    """

    op_s = 2.0

    def __init__(
        self,
        *,
        n: int = 1000,
        pool: int = 8,
        engine: str = "sync",
        tolerance: float = 1e-6,
    ) -> None:
        self.n = n
        self.pool = pool
        self.engine = engine
        self.tolerance = tolerance

    def setup(self, seed: int) -> _ColdState:
        streams = RngStreams(seed)
        gen = streams.get("matrix")
        pool = [synthetic.synthetic_trust_matrix(self.n, rng=gen) for _ in range(self.pool)]
        config = GossipTrustConfig(
            n=self.n,
            engine=self.engine,
            engine_mode="full",
            compute_reference=False,
            seed=_system_seed(streams),
        )
        return _ColdState(pool=pool, config=config)

    def _counters(self, system: GossipTrust) -> Dict[str, float]:
        """Protocol counters read from the system (none for the sync engine)."""
        return {}

    def op(self, state: _ColdState, index: int, timed: Timed) -> Op:
        slot = index % len(state.pool)
        S = state.pool[slot]
        system = GossipTrust(S, state.config)
        before = self._counters(system)
        (result, cycle_walls), wall = timed(
            _run_marked, system, raise_on_budget=False, compute_reference=False
        )
        counters = {k: v - before[k] for k, v in self._counters(system).items()}
        if slot not in state.exact:
            state.exact[slot] = exact_global_reputation(
                S, state.config, power_nodes=frozenset()
            ).vector
        error = average_relative_error(result.vector, state.exact[slot])
        first = state.first.setdefault(slot, result.vector)
        problem = None
        if not result.converged:
            problem = f"cold run on pool matrix {slot} did not converge"
        elif error > self.tolerance:
            problem = f"aggregation error {error:.3g} > {self.tolerance:g}"
        elif first.tobytes() != result.vector.tobytes():
            problem = f"pool matrix {slot} gave a different vector on repeat"
        return Op(wall, result.cycles, result.vector, cycle_walls, counters, problem)


class MessageRuns(ColdRuns):
    """Cold runs on the message-level DES engine, counting transport traffic."""

    op_s = 1.3

    def __init__(self, *, n: int = 128, pool: int = 12) -> None:
        super().__init__(n=n, pool=pool, engine="message", tolerance=1e-5)

    def _counters(self, system: GossipTrust) -> Dict[str, float]:
        engine: Any = system.engine
        return {
            "messages": engine.transport.sent,
            "bytes": engine.transport.bytes_sent,
            "dropped": engine.transport.drop_count,
            "events": engine.sim.events_processed,
        }


@dataclass
class _ProbeState:
    system: GossipTrust
    vector: Optional[np.ndarray] = None


class ProbeCycles(Workload):
    """The cycles of one cold large-n run, one ``GossipTrust.run`` call each.

    The system caps ``run`` at one cycle (``max_cycles=1``); operation
    ``k`` starts from operation ``k-1``'s vector with the empty power-node
    set a cold round keeps, so the sequence walks the cold trajectory.
    In probe mode the engine gossips ``probe_columns`` columns and returns
    the exact oracle as its next vector: this measures gossip cost.
    """

    op_s = 3.6
    #: largest gossip error a probe cycle may report
    TOLERANCE = 1e-6

    def __init__(self, *, n: int = 100_000) -> None:
        self.n = n

    def setup(self, seed: int) -> _ProbeState:
        streams = RngStreams(seed)
        S = synthetic.synthetic_trust_matrix(self.n, rng=streams.get("matrix"))
        config = GossipTrustConfig(
            n=self.n,
            kernel="sparse",
            max_cycles=1,
            compute_reference=False,
            seed=_system_seed(streams),
        )
        return _ProbeState(GossipTrust(S, config))

    def op(self, state: _ProbeState, index: int, timed: Timed) -> Op:
        state.system.set_power_nodes(frozenset())
        (result, cycle_walls), wall = timed(
            _run_marked,
            state.system,
            v0=state.vector,
            raise_on_budget=False,
            compute_reference=False,
        )
        state.vector = result.vector
        cycle = result.cycle_results[0]
        problem = None
        if not cycle.converged:
            problem = "probe cycle hit its gossip step budget"
        elif cycle.gossip_error > self.TOLERANCE:
            problem = f"gossip error {cycle.gossip_error:.3g} > {self.TOLERANCE:g}"
        return Op(wall, result.cycles, result.vector, cycle_walls, error=problem)


def _served_brackets(vector: np.ndarray, nodes: np.ndarray, bits: int, floor: float) -> np.ndarray:
    """The score a lookup of each node serves when no Bloom false positive hits.

    The serving store's documented scheme: ``2^bits`` geometric brackets
    from ``floor`` to the top score, each served at its geometric midpoint.
    """
    top = float(vector.max())
    if top <= floor:
        top = floor * 10.0
    brackets = 1 << bits
    edges = np.geomspace(floor, top, brackets + 1)
    b = np.clip(np.searchsorted(edges, vector[nodes], side="right") - 1, 0, brackets - 1)
    return np.sqrt(edges[b] * edges[b + 1])


@dataclass
class _ServiceState:
    service: ReputationService
    events: np.random.Generator


class ServiceEpochs(Workload):
    """Rounds of a long-lived ``ReputationService``: ingest, lookups, one epoch.

    Set-up bootstraps the service on a populated ledger and runs
    stabilization epochs until power-node churn is 0 (at most
    ``MAX_STABILIZE``).  Each round ingests ``events`` feedback events on
    1% of the rater rows, serves ``lookups`` uniform reads, then runs the
    warm-started epoch; the epoch is the timed aggregation.

    An epoch stops when consecutive cycles differ by less than delta, not
    at the fixed point; with the alpha-mixed operator contracting by at
    most ``1 - alpha`` per cycle that leaves the published vector a few
    delta from it (seen up to 4.4 delta), hence a tolerance of 10 delta
    against the operator's fixed point.
    """

    op_s = 0.6
    #: the serving store's bracket parameters (ReputationService defaults)
    _BRACKET_BITS = 7
    _MIN_SCORE = 1e-9
    #: delta of the reference iteration that finds the fixed point
    _FIXED_POINT_DELTA = 1e-12
    #: stabilization epochs allowed in set-up
    MAX_STABILIZE = 12
    #: largest distance of a published vector from the fixed point (10 delta)
    TOLERANCE = 1e-2

    def __init__(
        self,
        *,
        n: int = 1000,
        events: int = 100,
        lookups: int = 800,
    ) -> None:
        self.n = n
        self.events = events
        self.lookups = lookups

    def setup(self, seed: int) -> _ServiceState:
        streams = RngStreams(seed)
        config = GossipTrustConfig(
            n=self.n, compute_reference=False, seed=_system_seed(streams)
        )
        service = ReputationService(self.n, config)
        populate_ledger(service.ledger, rng=streams.get("ledger"))
        service.run_epoch()
        for _ in range(self.MAX_STABILIZE):
            if service.run_epoch().power_node_churn == 0.0:  # a count ratio: exact
                break
        return _ServiceState(service, streams.get("events"))

    def _ingest(self, service: ReputationService, raters, ratees, authentic) -> None:
        for rater, ratee, ok in zip(raters, ratees, authentic):
            service.ingest(
                rater,
                ratee,
                TransactionOutcome.AUTHENTIC if ok else TransactionOutcome.INAUTHENTIC,
            )

    def op(self, state: _ServiceState, index: int, timed: Timed) -> Op:
        service, gen, n = state.service, state.events, self.n
        pool = gen.choice(n, size=max(1, n // 100), replace=False)
        raters = pool[gen.integers(0, pool.size, size=self.events)]
        ratees = gen.integers(0, n - 1, size=self.events)
        ratees[ratees >= raters] += 1
        authentic = gen.random(self.events) < 0.9
        nodes = gen.integers(0, n, size=self.lookups)
        timed(self._ingest, service, raters.tolist(), ratees.tolist(), authentic.tolist())
        served, _ = timed(lambda: [service.lookup(node) for node in nodes.tolist()])
        # Bloom filters have no false negatives, so a lookup serves the
        # node's own bracket or (false positive) a higher one, never lower.
        expected = _served_brackets(service.scores(), nodes, self._BRACKET_BITS, self._MIN_SCORE)
        got = np.array([s.score for s in served])
        stale = sum(s.epoch != service.epoch for s in served)
        low = int(np.sum(got < expected * (1.0 - 1e-12)))
        misbracketed = int(np.sum(got > expected * (1.0 + 1e-12)))
        power: FrozenSet[int] = service.power_nodes
        report, wall = timed(service.run_epoch)
        vector = service.scores()
        reference = service.config.with_updates(delta=self._FIXED_POINT_DELTA, max_cycles=100_000)
        fixed = exact_global_reputation(service.matrix, reference, power_nodes=power).vector
        error = average_relative_error(vector, fixed)
        problem = None
        if report.failed or report.skipped:
            problem = f"epoch {report.epoch} failed: {report.error}"
        elif stale or low:
            problem = f"{stale} stale and {low} under-bracket lookups"
        elif error > self.TOLERANCE:
            problem = f"published vector off the fixed point by {error:.3g}"
        counters = {
            "rows_patched": report.dirty_rows,
            "lookups": self.lookups,
            "misbracketed": misbracketed,
        }
        per_cycle = [wall / report.cycles] if report.cycles else []
        return Op(wall, report.cycles, vector, per_cycle, counters, problem)


#: the registered workloads at full size, by name (as in BENCHMARK.json)
WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "cold-1k": ColdRuns,
    "probe-100k": ProbeCycles,
    "service-1k": ServiceEpochs,
    "des-128": MessageRuns,
}

