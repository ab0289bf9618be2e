"""Closed-loop service simulation: ingest → aggregate → serve.

Drives a :class:`~repro.service.reputation.ReputationService` over a
synthetic power-law feedback network through a sequence of aggregation
epochs, measuring what a long-lived deployment cares about:

* sustained **ingest throughput** (feedback events absorbed per second);
* **query throughput** and **served-score staleness** (pending feedback
  events behind every answered lookup);
* the **incremental-vs-scratch** comparison — after the power-node set
  stabilizes and only a small fraction of trust rows change per epoch,
  a warm-started epoch against a from-scratch cold
  :meth:`~repro.core.gossiptrust.GossipTrust.run` on the *same* matrix
  and the *same* power-node set, both converging to the same vector.

Warm-start only pays once the mixed operator is stable: re-selecting
power nodes moves the fixed point of ``(1-α)·S^T v + α·P``, so the
simulation runs stabilization epochs until the power-node set stops
churning before it starts measuring.  This mirrors the steady state of
a real deployment, where the highest-reputation peers change rarely.

Shared by the ``serve-sim`` CLI subcommand and the ``service`` section
of ``tools/bench_runner.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust
from repro.distributions.powerlaw import FeedbackCountDistribution
from repro.errors import ValidationError
from repro.gossip.convergence import average_relative_error
from repro.metrics.telemetry import Stopwatch
from repro.service.reputation import ReputationService, ServiceEpochReport
from repro.trust.feedback import FeedbackLedger
from repro.types import TransactionOutcome
from repro.utils.rng import RngStreams, SeedLike, as_generator

__all__ = [
    "ServeSimConfig",
    "ServeSimReport",
    "populate_ledger",
    "simulate_service",
]


def populate_ledger(
    ledger: FeedbackLedger,
    *,
    mean_balance: float = 100.0,
    rng: SeedLike = None,
) -> int:
    """Fill a ledger with a mature network's transaction history.

    Partner structure mirrors
    :func:`~repro.experiments.synthetic.synthetic_trust_matrix` (per-node
    feedback counts from the paper's bounded power law, distinct uniform
    partners), but pair scores are EigenTrust *satisfaction balances* —
    integer ``sat - unsat`` counts, geometric with mean ``mean_balance``
    — rather than uniform reals.  Deep balances are the long-lived
    service's operating regime: the deeper the history, the smaller the
    relative dent of a single ±1 feedback event and the closer the
    next epoch starts to the previous fixed point.  Returns the number
    of (rater, ratee) pairs written.
    """
    n = ledger.n
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    if not mean_balance >= 1:
        raise ValidationError(f"mean_balance must be >= 1, got {mean_balance}")
    gen = as_generator(rng)
    counts = np.minimum(FeedbackCountDistribution().sample_counts(n, gen), n - 1)
    pairs = 0
    for i in range(n):
        k = int(counts[i])
        partners = gen.choice(n - 1, size=k, replace=False)
        partners[partners >= i] += 1
        balances = 1 + gen.geometric(1.0 / mean_balance, size=k)
        for j, balance in zip(partners.tolist(), balances.tolist()):
            ledger.set_score(i, j, float(balance))
        pairs += k
    return pairs


@dataclass(frozen=True)
class ServeSimConfig:
    """Parameters of one service simulation."""

    #: network size
    n: int = 200
    #: measured ingest→query→aggregate epochs after stabilization
    epochs: int = 5
    #: cap on stabilization epochs waiting for the power-node set to settle
    max_warmup_epochs: int = 12
    #: feedback events streamed in per measured epoch
    events_per_epoch: int = 50
    #: fraction of rater rows those events are concentrated on
    dirty_fraction: float = 0.01
    #: score lookups served per measured epoch (staleness is sampled here)
    queries_per_epoch: int = 500
    #: probability an event is rated satisfactory
    authentic_rate: float = 0.9
    #: mean transaction balance of the bootstrap ledger (history depth)
    mean_balance: float = 100.0
    #: ``b`` of the double-buffered Bloom serving stores
    bracket_bits: int = 7
    #: root seed for network generation, event stream, and aggregation
    seed: int = 0
    #: aggregation parameters (defaults to paper parameters, oracle off)
    gossip: Optional[GossipTrustConfig] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.dirty_fraction <= 1:
            raise ValidationError(
                f"dirty_fraction must be in (0, 1], got {self.dirty_fraction}"
            )
        if self.events_per_epoch < 1:
            raise ValidationError(
                f"events_per_epoch must be >= 1, got {self.events_per_epoch}"
            )
        if self.queries_per_epoch < 0:
            raise ValidationError(
                f"queries_per_epoch must be >= 0, got {self.queries_per_epoch}"
            )


@dataclass(frozen=True)
class ServeSimReport:
    """Everything one closed-loop simulation measured."""

    config: ServeSimConfig
    #: epochs burned before the power-node set stopped churning
    warmup_epochs: int
    #: whether the set actually settled within the warmup budget
    power_nodes_stable: bool
    #: per-epoch reports for the measured epochs (oldest first)
    epoch_reports: List[ServiceEpochReport] = field(default_factory=list)
    #: sustained feedback-ingest throughput (events per second)
    ingest_events_per_s: float = 0.0
    #: sustained lookup throughput against the Bloom serving store
    queries_per_s: float = 0.0
    #: mean pending-events staleness stamped on served scores
    mean_staleness_events: float = 0.0
    #: worst staleness stamped on any served score
    max_staleness_events: int = 0
    # -- incremental vs from-scratch, same matrix + same power nodes --
    #: mean cycles per measured warm epoch
    warm_cycles: float = 0.0
    #: mean gossip steps per measured warm epoch
    warm_steps: float = 0.0
    #: mean wall seconds per measured warm epoch (patch + run + rebuild)
    warm_wall_s: float = 0.0
    #: cycles a cold from-scratch run on the final matrix needed
    cold_cycles: int = 0
    #: gossip steps the cold run needed
    cold_steps: int = 0
    #: wall seconds of the cold run (aggregation only)
    cold_wall_s: float = 0.0
    #: average relative error between warm and cold converged vectors
    vector_error: float = 0.0
    #: serving-store compression ratio of the final snapshot
    store_compression: float = 0.0

    @property
    def wall_speedup(self) -> float:
        """cold wall time / warm wall time (> 1 means warm is faster)."""
        if self.warm_wall_s <= 0:
            return float("inf") if self.cold_wall_s > 0 else 1.0
        return self.cold_wall_s / self.warm_wall_s

    @property
    def step_speedup(self) -> float:
        """cold gossip steps / warm gossip steps."""
        if self.warm_steps <= 0:
            return float("inf") if self.cold_steps > 0 else 1.0
        return self.cold_steps / self.warm_steps


def _stream_events(
    service: ReputationService,
    cfg: ServeSimConfig,
    gen: np.random.Generator,
) -> float:
    """Ingest one epoch's feedback batch; returns the wall seconds spent.

    Events are concentrated on a small dirty pool of rater rows —
    ``dirty_fraction`` of the network — matching the differential
    regime where most of the trust matrix is unchanged between epochs.
    """
    n = cfg.n
    pool_size = max(1, int(round(cfg.dirty_fraction * n)))
    pool = gen.choice(n, size=pool_size, replace=False)
    raters = pool[gen.integers(0, pool_size, size=cfg.events_per_epoch)]
    ratees = gen.integers(0, n - 1, size=cfg.events_per_epoch)
    ratees[ratees >= raters] += 1
    authentic = gen.random(cfg.events_per_epoch) < cfg.authentic_rate
    watch = Stopwatch()
    for rater, ratee, ok in zip(raters.tolist(), ratees.tolist(), authentic.tolist()):
        service.ingest(
            rater,
            ratee,
            TransactionOutcome.AUTHENTIC if ok else TransactionOutcome.INAUTHENTIC,
        )
    return watch.elapsed()


def simulate_service(config: Optional[ServeSimConfig] = None) -> ServeSimReport:
    """Run the full closed loop and measure it.

    Phases:

    1. **bootstrap** — populate the ledger synthetically and run the
       cold first epoch (full matrix build, uniform start);
    2. **stabilization** — re-run epochs until the power-node set stops
       churning (the warm-start fixed point is only stationary then);
    3. **measured epochs** — per epoch: stream a concentrated feedback
       batch, serve queries (sampling staleness), re-aggregate warm;
    4. **scratch comparison** — one final warm epoch against a cold
       from-scratch :meth:`GossipTrust.run` on the identical matrix and
       power-node set, checking both converge to the same vector.
    """
    cfg = config if config is not None else ServeSimConfig()
    gen = RngStreams(cfg.seed).get("serve-sim")
    gossip_cfg = cfg.gossip or GossipTrustConfig(
        n=cfg.n, seed=cfg.seed, compute_reference=False
    )
    service = ReputationService(
        cfg.n, gossip_cfg, bracket_bits=cfg.bracket_bits, rng=cfg.seed
    )
    populate_ledger(service.ledger, mean_balance=cfg.mean_balance, rng=gen)

    # Phase 1-2: cold bootstrap, then let the power-node set settle.
    service.run_epoch()
    warmup = 1
    stable = False
    for _ in range(cfg.max_warmup_epochs):
        report = service.run_epoch()
        warmup += 1
        if report.power_node_churn == 0.0:  # noqa: GT004 -- churn is a count ratio
            stable = True
            break

    # Phase 3: measured ingest → query → aggregate epochs.
    measured: List[ServiceEpochReport] = []
    ingest_seconds = 0.0
    query_seconds = 0.0
    staleness_sum = 0
    staleness_max = 0
    queries = 0
    for _ in range(cfg.epochs):
        ingest_seconds += _stream_events(service, cfg, gen)
        if cfg.queries_per_epoch:
            nodes = gen.integers(0, cfg.n, size=cfg.queries_per_epoch)
            watch = Stopwatch()
            for node in nodes.tolist():
                served = service.lookup(node)
                staleness_sum += served.pending_events
                staleness_max = max(staleness_max, served.pending_events)
            query_seconds += watch.elapsed()
            queries += cfg.queries_per_epoch
        measured.append(service.run_epoch())

    # Phase 4: the same matrix and power-node set, warm vs from-scratch.
    # The warm side of the comparison is the *mean* measured epoch (all
    # start near the fixed point); the cold side runs on the final
    # matrix with the power nodes the final warm epoch used, so both
    # aggregate the identical operator and must meet at its fixed point.
    ingest_seconds += _stream_events(service, cfg, gen)
    power_before = service.power_nodes
    warm = service.run_epoch()
    measured.append(warm)
    matrix = service.matrix
    assert matrix is not None
    cold_system = GossipTrust(
        matrix, gossip_cfg, power_nodes=power_before, rng=gen
    )
    watch = Stopwatch()
    cold = cold_system.run(raise_on_budget=False, compute_reference=False)
    cold_wall = watch.elapsed()
    events = cfg.events_per_epoch * (cfg.epochs + 1)
    return ServeSimReport(
        config=cfg,
        warmup_epochs=warmup,
        power_nodes_stable=stable,
        epoch_reports=measured,
        ingest_events_per_s=events / ingest_seconds if ingest_seconds > 0 else 0.0,
        queries_per_s=queries / query_seconds if query_seconds > 0 else 0.0,
        mean_staleness_events=staleness_sum / queries if queries else 0.0,
        max_staleness_events=staleness_max,
        warm_cycles=float(np.mean([r.cycles for r in measured])),
        warm_steps=float(np.mean([r.gossip_steps for r in measured])),
        warm_wall_s=float(np.mean([r.wall_time_s for r in measured])),
        cold_cycles=cold.cycles,
        cold_steps=cold.total_gossip_steps,
        cold_wall_s=cold_wall,
        vector_error=average_relative_error(service.scores(), cold.vector),
        store_compression=service.stats().store.compression_ratio,
    )
