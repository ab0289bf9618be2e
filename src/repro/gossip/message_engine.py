"""Message-level gossip on the discrete-event simulator: one engine, two clocks.

Executes Algorithm 2 with *real messages*: a node halves its triplet
vector, keeps one half, and sends the other to a random live partner
through the :class:`~repro.network.transport.Transport` — which may
delay, lose, or (on failed links) drop it.  This engine exists for
fidelity and fault-injection:

* it validates the vectorized engine (same protocol, same convergence
  targets, agreement tested on matched instances);
* it is the vehicle for the robustness claims — message loss, link
  failure, and churn perturb the gossiped vector here, and the
  experiments measure by how much.

The protocol is written once; a *clock* decides when nodes gossip:

* the **round clock** (:class:`MessageGossipEngine`, ``"message"``):
  every live node gossips once per round, rounds paced at
  ``round_interval`` — longer than the worst-case latency, so a round's
  sends land before the next round's halving (the paper's
  synchronous-step abstraction);
* the **Poisson clock** (:class:`AsyncMessageGossipEngine`,
  ``"async"``): every node wakes at the events of its own Poisson
  process (Boyd et al.'s asynchronous time model), with no global
  round.

Both check convergence once per *window* (a round, or two mean gossip
intervals of simulated time) with the epsilon criterion
between consecutive windows' estimate matrices, and both run the same
sanitizer checks, mass-restoration guard and result accounting.  Mass
carried by lost messages simply vanishes; because both ``x`` and ``w``
shares vanish together, the surviving ratio estimates stay near the true
value — the reason the protocol "does not require error recovery
mechanisms" (§2).

Node state lives in one :class:`~repro.gossip.vector.PopulationStore`
owned by the engine: node ``i``'s triplet vector is row ``i`` of an
``(n, n)`` x/w pair, and the cycle's participants are one boolean mask
over its rows.  A cycle starts from the trust matrix's CSR, taken once:
it feeds the exact oracle, and one scatter of ``s_ij * v_i`` into the
live rows initializes them
(:meth:`~repro.gossip.vector.PopulationStore.reset`).  A round costs a
fixed number of Python calls, not one per message:

1. the strategy draws every live node's partner in node order in one
   call (:meth:`~repro.gossip.partnering.PartnerStrategy.partners`);
2. the store halves all senders in one pass into a fresh outbox (plain
   slicing when every row sends);
3. the transport sends the round in the same order as one batch
   (:meth:`~repro.network.transport.Transport.send_many`), which the
   simulator schedules as one heap entry;
4. arrivals come back in stretches of simulated time, are masked by
   the receivers' liveness and cycle membership, and merge into the
   store in arrival order as one ``csc_matvecs`` scatter-add — the sync
   engine's step kernel
   (:meth:`~repro.gossip.vector.PopulationStore.merge`).

Each window's convergence check divides only the estimate rows it
reads, mostly a few (the previous window's from the store as it stood
then), and held mass and the armed sanitizer's checks are row
reductions over the store.  Every vector,
step, counter and event count of the round clock is bitwise the same as
initializing, drawing, halving, sending and delivering node by node
(``tests/test_gossip_message_parity.py``): partner draws touch
only the strategy's own RNG (the
:class:`~repro.gossip.partnering.PartnerStrategy` contract), the batch
applies the per-message fault model in send order and fires each
message as one simulator event, and a fault that fires between two
arrivals splits the batch there.

The engine registers one handler per node that holds it only weakly
(:func:`weak_dispatcher`), so the transport never keeps a dropped
engine alive and a discarded system is freed by reference counting.
Poisson-clock halves and the partner strategy's control traffic arrive
through those handlers.  A round's batch holds the engine only until it
is delivered, and every wake of a Poisson window fires inside that
window, so nothing the simulator still holds after a cycle refers to
the engine.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.gossip.base import (
    CycleEngine,
    GossipCycleResult,
    TrustInput,
    coerce_csr,
    exact_aggregate,
)
from repro.gossip.convergence import REL_FLOOR, average_relative_error
from repro.gossip.partnering import GlobalSampler, PartnerStrategy
from repro.gossip.vector import EstimateRows, PopulationStore
from repro.network.overlay import Overlay
from repro.network.transport import Message, Transport
from repro.sim.engine import Simulator
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "MessageGossipResult",
    "MessageGossipEngine",
    "AsyncMessageGossipEngine",
    "weak_dispatcher",
]


@dataclass
class MessageGossipResult(GossipCycleResult):
    """A :class:`GossipCycleResult` with per-node message-level detail.

    On top of the uniform cycle fields (``v_next`` is the per-component
    mean of live nodes' estimates; ``steps`` counts gossip rounds;
    ``messages_sent``/``messages_dropped``/``mass_lost_fraction`` hold
    the transport telemetry) it exposes:
    """

    #: per-node estimate matrix (live nodes only, rows aligned with live ids)
    node_estimates: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    #: live node ids corresponding to node_estimates rows
    live_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


def weak_dispatcher(engine: "CycleEngine") -> Callable[[Message], None]:
    """A transport handler that forwards to ``engine._on_message`` weakly.

    Registering bound methods would make the transport hold the engine
    (and the engine holds the transport): a dropped system would then
    wait for a cyclic garbage-collection pass.  The dispatcher holds a
    :func:`weakref.ref` instead; a message that arrives after the engine
    was collected is dropped.
    """
    ref = weakref.ref(engine)

    def dispatch(msg: Message) -> None:
        target = ref()
        if target is not None:
            target._on_message(msg)  # type: ignore[attr-defined]

    return dispatch


def _disagreement(node_estimates: np.ndarray) -> float:
    """Max over components of the live-node estimate spread."""
    known = np.isfinite(node_estimates)
    if node_estimates.size == 0 or not known.any():
        return float("inf")
    if known.all():
        # nothing to skip: the plain column extremes are the nan-aware ones
        spread = node_estimates.max(axis=0) - node_estimates.min(axis=0)
        return float(spread.max())
    finite = np.where(known, node_estimates, np.nan)
    # Only components some node knows — all-nan columns carry no
    # disagreement signal (and nanmax would warn on them).
    finite = finite[:, known.any(axis=0)]
    with np.errstate(invalid="ignore"):
        spread = np.nanmax(finite, axis=0) - np.nanmin(finite, axis=0)
    return float(np.nanmax(spread))


def _finite_mean(node_estimates: np.ndarray) -> np.ndarray:
    """Column means over the finite entries of ``node_estimates``.

    A column no node has a finite estimate for averages to 0.  Equals
    ``nanmean`` over the finite entries bitwise (same masked column sum
    over the same count) but never warns on an empty column.  When every
    entry is finite (a converged cycle) there is nothing to mask.
    """
    known = np.isfinite(node_estimates)
    rows = node_estimates.shape[0]
    if rows and known.all():
        mean = node_estimates.sum(axis=0) / rows
    else:
        total = np.where(known, node_estimates, 0.0).sum(axis=0)
        count = known.sum(axis=0)
        mean = np.divide(total, count, out=np.zeros_like(total), where=count > 0)
    if np.isfinite(mean).all():
        return mean
    return np.nan_to_num(mean, nan=0.0, posinf=0.0)


#: Rows in the first block of the convergence check, and the most rows
#: in any block.  Most rounds fail the check, and most fail it within
#: the first few rows, so the check starts small, doubles its blocks up
#: to the cap and stops at the first block that fails.
_FIRST_CHECK_ROWS = 4
_CHECK_ROWS = 32


def _batched_converged(
    cur_ids: Tuple[int, ...],
    cur: Union[np.ndarray, EstimateRows],
    prev_ids: Tuple[int, ...],
    prev: Union[np.ndarray, EstimateRows],
    epsilon: float,
) -> bool:
    """Epsilon criterion over the whole live population, block by block.

    ``cur``/``prev`` are the ``(len(ids), n)`` estimate matrices of the
    two windows (every entry ``>= 0``, ``inf`` or ``nan``), as arrays or
    as :class:`~repro.gossip.vector.EstimateRows` that evaluate only the
    blocks read.  The semantics match the historical
    per-node loop: every current node must have been sampled last round,
    its finite pattern must be unchanged (newly-heard-of peers mean mass
    is still spreading), it must have at least one finite estimate, and
    the relative change over finite entries must not exceed ``epsilon``
    anywhere.

    The rows are checked in blocks of :data:`_FIRST_CHECK_ROWS` rows,
    doubling up to :data:`_CHECK_ROWS`, stopping at the first block that
    fails.  Every rule is per row, so the answer is the one a single
    pass over all rows gives, and a block may test the rules in any
    order: the relative change comes first, because it is what fails
    most rounds.
    """
    if len(cur_ids) == 0:
        return True
    if cur_ids == prev_ids:
        idx = None
    else:
        pos = {node: i for i, node in enumerate(prev_ids)}
        idx = [pos.get(node, -1) for node in cur_ids]
        if min(idx) < 0:
            return False
    lo, size = 0, _FIRST_CHECK_ROWS
    with np.errstate(invalid="ignore"):
        while lo < len(cur_ids):
            hi = lo + size
            block = cur[lo:hi]
            aligned = prev[lo:hi] if idx is None else prev[idx[lo:hi]]
            # Non-finite positions give NaN residuals, which fmax skips,
            # or inf ones, which fail; the estimates are never negative,
            # so they are their own absolute values.  A NaN block maximum
            # means no finite position at all, which the rules below
            # reject too.
            residual = np.abs(block - aligned)
            residual /= np.fmax(aligned, REL_FLOOR)
            if not float(np.fmax.reduce(residual, axis=None)) <= epsilon:
                return False
            finite = np.isfinite(block)
            if (finite != np.isfinite(aligned)).any():
                return False
            if not finite.any(axis=1).all():
                return False
            lo, size = hi, min(2 * size, _CHECK_ROWS)
    return True


class MessageGossipEngine(CycleEngine):
    """Runs gossiped aggregation cycles as timed messages on the DES.

    The round clock: every live node gossips once per round.  A
    subclass swaps the clock by overriding :meth:`_advance` and
    :meth:`_steps` (see :class:`AsyncMessageGossipEngine`); the cycle,
    its checks and its result are written once, here.

    Parameters
    ----------
    sim, transport, overlay:
        Simulation substrate.  The engine registers a weak dispatcher
        (:func:`weak_dispatcher`) as the transport handler for every
        node id in the overlay.
    epsilon:
        Gossip convergence threshold per node (Algorithm 1 line 14).
    round_interval:
        Simulated time between gossip rounds; must exceed the transport's
        max latency (1.5x mean) or construction fails.
    max_rounds:
        Per-cycle round budget.
    partnering:
        A :class:`~repro.gossip.partnering.PartnerStrategy` deciding who
        each node gossips with (and maintaining membership views over
        this transport).  Default: the global sampler, bit-identical to
        the engine's historical behaviour (the global choice Kempe et
        al. analyze); ``NeighborSampler()`` restricts partners to
        overlay neighbors, which the paper also permits.
    mass_restore_budget:
        Self-healing threshold: when the measured ``mass_lost_fraction``
        exceeds this value at a window boundary, the engine restores the
        cycle's mass budget (``None`` disables the guard).  The clock
        decides how.  At a round boundary nothing is in flight, so the
        round clock rescales every surviving vector by
        ``initial/current`` mass (ratio-preserving, estimates
        untouched), and restarts the cycle only when no mass is left.
        The Poisson clock drains, re-measures and restarts (see
        :class:`AsyncMessageGossipEngine`).  Either way the one-sided
        conservation bound stays intact: restoration never pushes held
        mass above the cycle's initial budget.
    """

    name = "message"
    #: whether gossip mass can be in flight when a window ends
    _in_flight: ClassVar[bool] = False
    #: windows before the convergence check may stop the cycle
    min_rounds = 2

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        overlay: Overlay,
        *,
        epsilon: float = 1e-4,
        round_interval: float = 2.0,
        max_rounds: int = 500,
        partnering: Optional[PartnerStrategy] = None,
        mass_restore_budget: Optional[float] = None,
        rng: SeedLike = None,
    ) -> None:
        if round_interval <= 1.5 * transport.latency:
            raise ValidationError(
                f"round_interval={round_interval} must exceed max message latency "
                f"{1.5 * transport.latency} or rounds overlap"
            )
        if max_rounds < 1:
            raise ValidationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.round_interval = float(round_interval)
        self.max_rounds = int(max_rounds)
        self._bind(sim, transport, overlay, epsilon, partnering, mass_restore_budget, rng)

    def _bind(
        self,
        sim: Simulator,
        transport: Transport,
        overlay: Overlay,
        epsilon: float,
        partnering: Optional[PartnerStrategy],
        mass_restore_budget: Optional[float],
        rng: SeedLike,
    ) -> None:
        """The clock-independent set-up: substrate, store and handlers."""
        check_in_range("epsilon", epsilon, low=0.0, low_inclusive=False)
        if mass_restore_budget is not None:
            check_in_range(
                "mass_restore_budget", mass_restore_budget,
                low=0.0, high=1.0, low_inclusive=False, high_inclusive=False,
            )
        self.sim = sim
        self.transport = transport
        self.overlay = overlay
        self.epsilon = float(epsilon)
        if partnering is None:
            partnering = GlobalSampler()
        self.partnering = partnering
        self.partnering.bind(sim, transport, overlay)
        self.mass_restore_budget = (
            float(mass_restore_budget) if mass_restore_budget is not None else None
        )
        #: gossip halves delivered to departed/uninitialized nodes (their
        #: mass vanished without a transport drop being counted)
        self.discarded = 0
        self._rng = as_generator(rng)
        #: every node's triplet vector, one row each, recycled across
        #: cycles (reset in place, never reallocated)
        self._store = PopulationStore(overlay.n)
        #: this cycle's participants, by node id
        self._member = np.zeros(overlay.n, dtype=bool)
        dispatch = weak_dispatcher(self)
        for node in range(overlay.n):
            transport.register(node, dispatch)

    # -- the round clock -------------------------------------------------

    def _advance(self, windows: int) -> bool:
        """Run the next check window; ``False`` once the budget is spent.

        ``windows`` is the number of windows already run this cycle (0
        starts a cycle).
        """
        if windows >= self.max_rounds:
            return False
        self._gossip_round()
        self.sim.run(until=self.sim.now + self.round_interval)
        return True

    def _steps(self, windows: int, live: int) -> int:
        """The cycle's step count: gossip rounds."""
        return windows

    def _gossip_round(self) -> None:
        """Every live node halves its vector and ships one half.

        One call per stage: the strategy draws every partner in
        live-node order (:meth:`~repro.gossip.partnering.PartnerStrategy.partners`),
        the store halves all senders into a fresh outbox, and the
        transport sends the round in the same order as one batch
        (:meth:`~repro.network.transport.Transport.send_many`), which
        arrives in :meth:`_on_gossip`.  Bitwise the same as drawing,
        halving and sending node by node: partner draws touch only the
        strategy's RNG, the batch applies the per-message fault model in
        send order, and nothing is delivered before the simulator runs.
        """
        nodes = self._held()
        partners = self.partnering.partners(nodes)
        sending = partners >= 0
        senders, dst = nodes[sending], partners[sending]
        outbox, nbytes = self._store.halve(senders)
        self.transport.send_many(senders, dst, outbox, nbytes, partial(self._on_gossip, dst))

    def _on_gossip(self, dst: np.ndarray, outbox: np.ndarray, idx: np.ndarray) -> None:
        """Arrival of round messages ``idx``: merge them, in arrival order.

        A half that reaches a departed node, or one outside the cycle
        (partial views go stale), is discarded: its mass vanishes
        without a transport drop, so it is counted here or the exact
        conservation check would fire on a lossy history.
        """
        to = dst[idx]
        held = (self._member & self.overlay.alive_view)[to]
        if held.all():
            self._store.merge(to, outbox, idx)
            return
        self.discarded += int(idx.size - np.count_nonzero(held))
        self._store.merge(to[held], outbox, idx[held])

    # -- protocol --------------------------------------------------------

    def _on_message(self, msg: Message) -> None:
        """A message through the registered handlers.

        Round gossip arrives in batches (:meth:`_on_gossip`); what comes
        here is a single gossip half (a Poisson wake's) or the partner
        strategy's control traffic.
        """
        if msg.kind != "gossip":
            self.partnering.on_message(msg)
        elif self._member[msg.dst] and self.overlay.is_alive(msg.dst):
            self._store.merge_row(msg.dst, msg.payload)
        else:
            self.discarded += 1

    def _held(self) -> np.ndarray:
        """Live nodes in this cycle, ascending: the rows that hold its mass."""
        return (self._member & self.overlay.alive_view).nonzero()[0]

    def _init_cycle(
        self, S: sparse.csr_matrix, v_prior: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Cycle initialization: every live node joins with a fresh row.

        Returns the participants and their rows' total mass.
        """
        live = self.overlay.alive_nodes()
        self._member[:] = False
        self._member[live] = True
        self._store.reset(live, S, v_prior)
        return live, self._store.mass(live)

    def _over_budget(self, mass: float, initial_mass: float) -> bool:
        """Whether the restore guard fires on held ``mass``."""
        return (
            self.mass_restore_budget is not None
            and initial_mass > 0.0
            and mass < (1.0 - self.mass_restore_budget) * initial_mass
        )

    def _drain(self) -> None:
        """Let every message in flight land (3x the mean latency)."""
        self.sim.run(until=self.sim.now + 3.0 * max(self.transport.latency, 1e-9))

    def run_cycle(
        self,
        S: Union[TrustInput, Sequence[Mapping[int, float]]],
        v_prior: np.ndarray,
    ) -> MessageGossipResult:
        """Execute one full aggregation cycle and return its outcome.

        Parameters
        ----------
        S:
            The trust matrix — a :class:`~repro.trust.matrix.TrustMatrix`
            (its CSR is used as is), a raw array/sparse matrix, or a
            per-node sequence of sparse rows ``{j: s_ij}``.  It is taken
            to CSR once (:func:`~repro.gossip.base.coerce_csr`), which
            feeds both the exact oracle and cycle initialization.
        v_prior:
            Previous-cycle reputation vector ``V(t-1)`` (dense, length n).

        A cycle that spends the clock's budget before the epsilon
        criterion holds returns its best effort with ``converged=False``
        (fault injection legitimately slows convergence).
        """
        n = self.overlay.n
        S_csr = coerce_csr(S, n)
        v_prior = np.asarray(v_prior, dtype=np.float64)
        if v_prior.shape != (n,):
            raise ValidationError(f"v_prior must have shape ({n},)")

        exact = exact_aggregate(S_csr, v_prior, n)
        san = self.sanitizer
        if san is not None:
            san.begin_cycle(self.name)
        store = self._store
        initial_live, initial_mass = self._init_cycle(S_csr, v_prior)
        track_mass = san is not None or self.mass_restore_budget is not None
        sent_before = self.transport.sent
        dropped_before = self.transport.drop_count
        discarded_before = self.discarded

        def lossless(held: np.ndarray) -> bool:
            """No drop, discard or departure since the cycle (re)started."""
            return (
                self.transport.drop_count == dropped_before
                and self.discarded == discarded_before
                and np.array_equal(held, initial_live)
            )

        prev_ids: Tuple[int, ...] = ()
        prev_est: Optional[EstimateRows] = None
        windows = 0
        converged = False
        restorations = 0
        self.partnering.start()
        while self._advance(windows):
            windows += 1
            cur = self._held()
            # Only the sanitizer and the restore guard read the mass.
            mass_now = store.mass(cur) if track_mass else 0.0
            if san is not None:
                store.check_invariants(san, cur, step=windows)
                if not self._in_flight and lossless(cur):
                    # Nothing in flight, lossless history: push-sum
                    # conserves exactly.
                    san.check_mass("total x+w mass", mass_now, initial_mass, step=windows)
                else:
                    # Drops, departures and mass in flight may hide
                    # mass, but gossip must never create it.
                    san.check_mass_bounded(
                        "total x+w mass", mass_now, initial_mass, step=windows
                    )
            if self._over_budget(mass_now, initial_mass):
                if self._in_flight:
                    # A large share of the mass can legitimately be in
                    # flight, and a restart is destructive, so verify
                    # first: pause the clock, let the traffic land and
                    # re-measure.  A false alarm costs simulated time
                    # but no progress.
                    self._drain()
                    if not self._over_budget(store.mass(self._held()), initial_mass):
                        continue
                restorations += 1
                if self._in_flight or not mass_now > 0.0:
                    # Restart: live nodes re-enter the cycle from fresh
                    # vectors; the steps already spent stay counted.
                    initial_live, initial_mass = self._init_cycle(S_csr, v_prior)
                    dropped_before = self.transport.drop_count
                    discarded_before = self.discarded
                    prev_ids, prev_est = (), None
                    continue
                # Ratio-preserving renormalization: estimates are
                # untouched, only the mass budget is restored, so
                # convergence tracking carries straight through.
                # Departed nodes leave the cycle first — their mass is
                # written off now, so a later rejoin cannot resurrect it
                # on top of the restored budget (which would create mass
                # and break the one-sided bound).
                self._member[:] = False
                self._member[cur] = True
                store.rescale(cur, initial_mass / mass_now)
            # The check reads the estimates a block at a time, mostly a
            # few rows: this window's from the live store, the previous
            # window's from the store as it stood then.
            cur_ids = tuple(cur.tolist())
            cur_est = store.estimate_rows(cur)
            if prev_est is not None and windows >= self.min_rounds:
                if _batched_converged(cur_ids, cur_est, prev_ids, prev_est, self.epsilon):
                    converged = True
                    break
            # the blocks the check just read are the next window's too
            prev_ids, prev_est = cur_ids, store.frozen_estimate_rows(cur, cur_est)
        self.partnering.stop()
        if self._in_flight:
            # Mass sent but not yet delivered is not lost, it is late:
            # let it land before accounting.
            self._drain()

        live = self.overlay.alive_nodes()
        held = self._held()
        node_estimates = store.estimates(held)
        v_next = _finite_mean(node_estimates)

        final_mass = store.mass(held)
        lost = 0.0 if initial_mass == 0 else max(0.0, 1.0 - final_mass / initial_mass)
        if san is not None:
            # Nothing is in flight now: with a lossless history
            # conservation holds exactly, otherwise one-sided.
            if lossless(held):
                san.check_mass("total x+w mass (drained)", final_mass, initial_mass)
            else:
                san.check_mass_bounded("total x+w mass (drained)", final_mass, initial_mass)

        return MessageGossipResult(
            v_next=v_next,
            exact=exact,
            steps=self._steps(windows, live.size),
            converged=converged,
            mode=self.name,
            node_disagreement=_disagreement(node_estimates),
            messages_sent=self.transport.sent - sent_before,
            messages_dropped=self.transport.drop_count - dropped_before,
            gossip_error=average_relative_error(v_next, exact),
            mass_lost_fraction=lost,
            mass_restorations=restorations,
            node_estimates=node_estimates,
            live_nodes=live,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MessageGossipEngine(n={self.overlay.n}, epsilon={self.epsilon}, "
            f"round_interval={self.round_interval})"
        )


class AsyncMessageGossipEngine(MessageGossipEngine):
    """Algorithm 2 on per-node Poisson clocks: no synchronized rounds.

    The paper (following Kempe et al. and Boyd et al.) *analyzes*
    gossip in synchronous steps, but a deployed protocol has no global
    round clock: each peer gossips on its own local timer.  Here every
    node wakes at the events of a Poisson process of rate
    ``1 / mean_interval`` (Boyd et al.'s asynchronous time model),
    halves its row and sends one half; arrivals add into the
    receiver's row.

    The n clocks are simulated as one Poisson clock of rate
    ``n / mean_interval`` whose events pick a node uniformly over all n
    ids.  At the start of each check window the engine draws the
    window's wake times and woken ids from its RNG and schedules each
    wake as a plain simulator call; a wake whose node is dead or
    outside the cycle does nothing.  This thinning is exact also when
    churn lands inside the window, because liveness is read when the
    wake fires.

    Results are reported in *equivalent rounds* (sends per live node)
    so they compare directly with the round clock — the classic
    asynchronous-gossip result is that the per-send convergence cost
    matches the synchronous analysis, which the ``async`` ablation
    bench checks.

    Parameters
    ----------
    sim, transport, overlay, epsilon, partnering:
        As for :class:`MessageGossipEngine`; ``epsilon`` applies between
        consecutive check windows.
    mean_interval:
        Mean of each node's exponential gossip interval (one "round" of
        wall-clock corresponds to ~1 send per node).  Convergence checks
        run every ``2 * mean_interval`` of simulated time, so a check
        window spans ~2 sends per node.
    max_time:
        Simulated-time budget per cycle.
    mass_restore_budget:
        Self-healing threshold on ``mass_lost_fraction`` measured at
        the window boundary (``None`` disables the guard).  Because mass
        is in flight between Poisson sends, the guard always restarts:
        the engine pauses the clock, drains the transport, re-measures,
        and re-initializes every live node if the loss is genuine —
        uniform renormalization would over-restore once in-flight mass
        landed, creating mass and tripping the one-sided conservation
        bound.
    """

    name = "async"
    _in_flight = True

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        overlay: Overlay,
        *,
        epsilon: float = 1e-4,
        mean_interval: float = 1.0,
        max_time: float = 2000.0,
        partnering: Optional[PartnerStrategy] = None,
        mass_restore_budget: Optional[float] = None,
        rng: SeedLike = None,
    ) -> None:
        check_positive("mean_interval", mean_interval)
        check_positive("max_time", max_time)
        self.mean_interval = float(mean_interval)
        self.check_interval = 2.0 * self.mean_interval
        self.max_time = float(max_time)
        #: gossip halves sent this cycle
        self.sends = 0
        self._deadline = 0.0
        self._bind(sim, transport, overlay, epsilon, partnering, mass_restore_budget, rng)

    def _advance(self, windows: int) -> bool:
        """Run one check window of the Poisson clock; ``False`` past ``max_time``.

        Draws the window's wakes (a Poisson count, uniform times, uniform
        ids), schedules each as one call and runs the window to its end,
        so every wake fires inside it.
        """
        if windows == 0:
            self.sends = 0
            self._deadline = self.sim.now + self.max_time
        start = self.sim.now
        if start >= self._deadline:
            return False
        span = min(self.check_interval, self._deadline - start)
        rng = self._rng
        n = self.overlay.n
        wakes = int(rng.poisson(n * span / self.mean_interval))
        times = start + np.sort(rng.random(wakes)) * span
        for when, node in zip(times.tolist(), rng.integers(n, size=wakes).tolist()):
            self.sim.call_at(when, self._wake, node)
        self.sim.run(until=start + span)
        return True

    def _steps(self, windows: int, live: int) -> int:
        """The cycle's step count: equivalent rounds, sends per live node."""
        return int(round(self.sends / max(1, live)))

    def _wake(self, node: int) -> None:
        """One Poisson event: ``node`` halves its row and sends one half."""
        if not (self._member[node] and self.overlay.is_alive(node)):
            return
        partner = self.partnering.partner(node)
        if partner is None:
            return
        half, size = self._store.halve_row(node)
        self.transport.send(node, partner, half, kind="gossip", size=size)
        self.sends += 1

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AsyncMessageGossipEngine(n={self.overlay.n}, "
            f"mean_interval={self.mean_interval})"
        )
