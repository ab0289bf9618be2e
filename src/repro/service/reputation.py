"""The long-lived reputation service: maintained, not recomputed.

The paper's cycle structure recomputes global reputation from scratch
each aggregation round.  A production deployment instead ingests a
continuous feedback stream and must keep serving scores while it
re-aggregates — the regime where differential-style aggregation (Gupta
& Singh, arXiv:1210.4301) pays off: on a near-converged network only
the *changes* need work.

:class:`ReputationService` is that service shape, one facade over four
refactored layers:

* **ingest** — feedback events land in a
  :class:`~repro.trust.feedback.FeedbackLedger` whose dirty-row
  tracking remembers exactly which raters changed;
* **delta application** — each epoch drains the dirty set and patches
  the normalized :class:`~repro.trust.matrix.TrustMatrix` via
  :meth:`~repro.trust.matrix.TrustMatrix.apply_row_deltas` (row-level
  cache invalidation, no full rebuild);
* **warm-started aggregation** —
  :meth:`~repro.core.gossiptrust.GossipTrust.run` iterates from the
  previous epoch's converged vector instead of uniform, so a
  near-converged network finishes in one or two cycles instead of ten;
* **serving** — every epoch rebuilds the *standby*
  :class:`~repro.storage.reputation_store.BloomReputationStore` of a
  double-buffered pair and swaps it in atomically, so score reads
  (:meth:`ReputationService.lookup`) never block on, and are never
  blocked by, aggregation.

Every served score carries a staleness stamp: the epoch it was
aggregated in plus the number of feedback events ingested since that
snapshot was published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust, GossipTrustResult
from repro.errors import (
    ConvergenceError,
    InvariantViolation,
    NetworkError,
    ValidationError,
)
from repro.metrics.telemetry import Stopwatch
from repro.storage.reputation_store import BloomReputationStore, StorageReport
from repro.trust.feedback import FeedbackLedger
from repro.trust.matrix import TrustMatrix
from repro.types import TransactionOutcome
from repro.utils.rng import SeedLike

__all__ = ["ServedScore", "ServiceEpochReport", "ServiceStats", "ReputationService"]


@dataclass(frozen=True)
class ServedScore:
    """One score answered by the serving layer, with its staleness stamp."""

    #: the peer the score is about
    node: int
    #: bracket-quantized score from the Bloom serving store
    score: float
    #: aggregation epoch the serving snapshot was computed in
    epoch: int
    #: feedback events ingested since that snapshot (staleness measure)
    pending_events: int


@dataclass(frozen=True)
class ServiceEpochReport:
    """What one :meth:`ReputationService.run_epoch` call did and cost."""

    #: 1-based epoch number (matches ``GossipTrustResult.epoch``)
    epoch: int
    #: feedback events absorbed into this epoch's matrix
    events_absorbed: int
    #: trust-matrix rows patched (n on the initial full build)
    dirty_rows: int
    #: whether aggregation warm-started from the previous vector
    warm_started: bool
    #: aggregation cycles to delta convergence
    cycles: int
    #: total gossip steps across those cycles
    gossip_steps: int
    #: whether the run met the delta criterion within budget
    converged: bool
    #: fraction of the power-node set replaced at the end of the epoch
    power_node_churn: float
    #: wall-clock seconds for the whole epoch (drain + patch + run + rebuild)
    wall_time_s: float
    #: gossip-vs-exact error when the oracle ran (None otherwise)
    aggregation_error: Optional[float] = None
    #: aggregation raised and the service kept serving the stale snapshot
    failed: bool = False
    #: the attempt was skipped because a failure backoff is in effect
    skipped: bool = False
    #: stringified aggregation error when ``failed`` (None otherwise)
    error: Optional[str] = None


@dataclass(frozen=True)
class ServiceStats:
    """Cumulative service counters (cheap to read at any time)."""

    n: int
    epoch: int
    events_ingested: int
    events_pending: int
    total_cycles: int
    total_gossip_steps: int
    #: serving-store accounting for the live snapshot
    store: StorageReport


class ReputationService:
    """Long-lived reputation aggregation with incremental re-aggregation.

    Parameters
    ----------
    n:
        Number of peers.
    config:
        Aggregation parameters; defaults to paper parameters with the
        exact-reference oracle off (a service does not pay O(n·cycles)
        for error reporting on every epoch).
    bracket_bits:
        ``b`` of the Bloom serving stores (``2^b`` score brackets); each
        bracket's filter targets the store's default false-positive
        rate.
    rng:
        Root seed material for the aggregation system (defaults to
        ``config.seed``).

    Example
    -------
    >>> from repro.service import ReputationService
    >>> from repro.types import TransactionOutcome
    >>> svc = ReputationService(4, rng=7)
    >>> for rater, ratee in [(0, 1), (1, 2), (2, 0), (3, 0)]:
    ...     svc.ingest(rater, ratee, TransactionOutcome.AUTHENTIC)
    >>> report = svc.run_epoch()
    >>> svc.lookup(0).epoch
    1
    """

    def __init__(
        self,
        n: int,
        config: Optional[GossipTrustConfig] = None,
        *,
        bracket_bits: int = 7,
        rng: SeedLike = None,
    ) -> None:
        if config is None:
            config = GossipTrustConfig(n=n, compute_reference=False)
        if config.n != n:
            raise ValidationError(f"config.n={config.n} does not match n={n}")
        self.n = int(n)
        self.config = config
        self.ledger = FeedbackLedger(n)
        self._rng: SeedLike = rng
        self._matrix: Optional[TrustMatrix] = None
        self._system: Optional[GossipTrust] = None
        self._vector: Optional[np.ndarray] = None
        self._epoch = 0
        self._pending = 0
        self._ingested = 0
        self._total_cycles = 0
        self._total_steps = 0
        self._epoch_reports: List[ServiceEpochReport] = []
        # Double-buffered serving stores: lookups read the serving
        # member while run_epoch rebuilds the standby, then the roles
        # swap — reads never see a store mid-build.
        self._stores = (
            BloomReputationStore(bracket_bits),
            BloomReputationStore(bracket_bits),
        )
        self._serving: Optional[int] = None
        # Failure backoff: consecutive aggregation failures double the
        # number of run_epoch calls skipped before the next attempt.
        self._failures = 0
        self._backoff_skip = 0

    # -- streaming ingest --------------------------------------------------

    def ingest(self, rater: int, ratee: int, outcome: TransactionOutcome) -> None:
        """Record one rated transaction (EigenTrust ±1 convention)."""
        self.ledger.record_transaction(rater, ratee, outcome)
        self._pending += 1
        self._ingested += 1

    # -- aggregation epochs ------------------------------------------------

    def run_epoch(self) -> ServiceEpochReport:
        """Absorb pending feedback and publish a new serving snapshot.

        One epoch is: drain the ledger's dirty rows, patch the trust
        matrix (full build on the very first epoch), run warm-started
        aggregation from the previous epoch's vector, rebuild the
        standby Bloom store from the converged vector, and swap it into
        serving.  Safe to call with no pending feedback — the epoch then
        just re-converges (typically in one cycle) and republishes.  The
        exact-reference oracle runs as ``config.compute_reference`` says,
        and a run that spends ``max_cycles`` publishes its last vector
        with ``converged=False``.

        Failure policy (serve stale): if aggregation raises (sanitizer
        violation, convergence blow-up, network fault), the service
        does **not** propagate the error —
        the previous snapshot keeps serving, lookups keep answering
        with their staleness stamp counting the unabsorbed events, and
        the epoch report comes back with ``failed=True``.  Consecutive
        failures arm an exponential backoff: the next ``2^(k-1)`` (up to
        8) ``run_epoch`` calls are skipped (``skipped=True``) before
        aggregation is attempted again.
        """
        watch = Stopwatch()
        if self._backoff_skip > 0:
            self._backoff_skip -= 1
            report = ServiceEpochReport(
                epoch=self._epoch,
                events_absorbed=0,
                dirty_rows=0,
                warm_started=False,
                cycles=0,
                gossip_steps=0,
                converged=False,
                power_node_churn=0.0,
                wall_time_s=watch.elapsed(),
                skipped=True,
            )
            self._epoch_reports.append(report)
            return report
        absorbed = self._pending
        self._pending = 0
        if self._matrix is None:
            # First epoch: one full normalization of everything the
            # ledger holds; deltas start from the next epoch.
            self.ledger.clear_dirty()
            self._matrix = TrustMatrix.from_ledger(self.ledger)
            self._system = GossipTrust(
                self._matrix,
                self.config,
                rng=self._rng if self._rng is not None else self.config.seed,
            )
            dirty = self.n
        else:
            deltas = self.ledger.drain_dirty()
            if deltas:
                self._matrix.apply_row_deltas(deltas)
            dirty = len(deltas)
        assert self._system is not None
        prev_power = self._system.power_nodes
        try:
            result = self._system.run(
                v0=self._vector,
                epoch=self._epoch + 1,
                raise_on_budget=False,
            )
        except (ConvergenceError, InvariantViolation, NetworkError) as exc:
            # Serve stale: the drained deltas stay absorbed in the
            # matrix (the retry re-aggregates them); the pending count
            # is restored so staleness stamps keep counting every event
            # the serving snapshot has not seen.
            self._pending += absorbed
            self._failures += 1
            self._backoff_skip = min(2 ** (self._failures - 1), 8)
            report = ServiceEpochReport(
                epoch=self._epoch,
                events_absorbed=0,
                dirty_rows=dirty,
                warm_started=False,
                cycles=0,
                gossip_steps=0,
                converged=False,
                power_node_churn=0.0,
                wall_time_s=watch.elapsed(),
                failed=True,
                error=f"{type(exc).__name__}: {exc}",
            )
            self._epoch_reports.append(report)
            return report
        self._failures = 0
        self._backoff_skip = 0
        self._epoch = result.epoch
        self._vector = result.vector
        self._total_cycles += result.cycles
        self._total_steps += result.total_gossip_steps
        churn = self._power_churn(prev_power, result)
        self._publish(result.vector)
        report = ServiceEpochReport(
            epoch=result.epoch,
            events_absorbed=absorbed,
            dirty_rows=dirty,
            warm_started=result.warm_started,
            cycles=result.cycles,
            gossip_steps=result.total_gossip_steps,
            converged=result.converged,
            power_node_churn=churn,
            wall_time_s=watch.elapsed(),
            aggregation_error=result.aggregation_error,
        )
        self._epoch_reports.append(report)
        return report

    @staticmethod
    def _power_churn(
        prev: frozenset, result: GossipTrustResult
    ) -> float:
        """Fraction of the power-node set replaced by this epoch."""
        new = result.power_nodes
        if not new:
            return 0.0
        return 1.0 - len(new & prev) / len(new)

    def _publish(self, vector: np.ndarray) -> None:
        """Rebuild the standby store and swap it into serving."""
        standby = 0 if self._serving != 0 else 1
        self._stores[standby].build(vector)
        self._serving = standby

    # -- serving -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Epochs published so far (0 = nothing servable yet)."""
        return self._epoch

    @property
    def pending_events(self) -> int:
        """Feedback events ingested since the serving snapshot."""
        return self._pending

    @property
    def matrix(self) -> Optional[TrustMatrix]:
        """The live normalized trust matrix (None before the first epoch)."""
        return self._matrix

    @property
    def power_nodes(self) -> FrozenSet[int]:
        """Power-node set installed for the *next* aggregation round."""
        if self._system is None:
            return frozenset()
        return self._system.power_nodes

    def lookup(self, node: int) -> ServedScore:
        """Serve one (quantized) score from the live Bloom snapshot."""
        if self._serving is None:
            raise ValidationError("service has published no epoch yet")
        if not 0 <= node < self.n:
            raise ValidationError(f"node {node} out of range [0, {self.n})")
        value = self._stores[self._serving].lookup(node)
        return ServedScore(
            node=int(node),
            score=value,
            epoch=self._epoch,
            pending_events=self._pending,
        )

    def scores(self) -> np.ndarray:
        """Copy of the last published reputation vector."""
        if self._vector is None:
            raise ValidationError("service has published no epoch yet")
        return self._vector.copy()

    def top(self, k: int) -> List[Tuple[int, float]]:
        """The ``k`` highest-reputation peers from the published vector."""
        if self._vector is None:
            raise ValidationError("service has published no epoch yet")
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        k = min(k, self.n)
        idx = np.argpartition(self._vector, -k)[-k:]
        idx = idx[np.argsort(self._vector[idx])[::-1]]
        return [(int(i), float(self._vector[i])) for i in idx]

    # -- accounting --------------------------------------------------------

    @property
    def epoch_reports(self) -> List[ServiceEpochReport]:
        """Per-epoch reports, oldest first."""
        return list(self._epoch_reports)

    def stats(self) -> ServiceStats:
        """Cumulative counters plus the live store's accounting."""
        store = (
            self._stores[self._serving].report()
            if self._serving is not None
            else BloomReputationStore().report()
        )
        return ServiceStats(
            n=self.n,
            epoch=self._epoch,
            events_ingested=self._ingested,
            events_pending=self._pending,
            total_cycles=self._total_cycles,
            total_gossip_steps=self._total_steps,
            store=store,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ReputationService(n={self.n}, epoch={self._epoch}, "
            f"pending={self._pending})"
        )
