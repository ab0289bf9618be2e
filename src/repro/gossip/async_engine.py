"""Asynchronous message-level gossip — no synchronized rounds.

The paper (following Kempe et al. and Boyd et al.) *analyzes* gossip in
synchronous steps, but a deployed protocol has no global round clock:
each peer gossips on its own local timer.  This engine runs Algorithm 2
that way — every live node is a :class:`~repro.sim.process.Process`
that sleeps an exponential interval (a Poisson clock, Boyd et al.'s
asynchronous time model), halves its vector, and ships one half.

Convergence is detected by a monitor that samples all live nodes'
estimates every ``check_interval`` of simulated time and applies the
epsilon criterion between consecutive samples.  Results are reported in
*equivalent rounds* (sends per node) so they compare directly with the
synchronous engine — the classic asynchronous-gossip result is that the
per-send convergence cost matches the synchronous analysis, which the
``async`` ablation bench checks.

Node state is the same :class:`~repro.gossip.vector.PopulationStore` as
the round-based engine's (row ``i`` is node ``i``'s vector); each
Poisson wake halves its own row, and the monitor's estimate matrix and
held mass are row reductions over the store.  Delivery handlers are the
same weak dispatcher (:func:`~repro.gossip.message_engine.weak_dispatcher`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ValidationError
from repro.gossip.base import CycleEngine, TrustInput, exact_aggregate, local_rows
from repro.gossip.convergence import average_relative_error
from repro.gossip.message_engine import (
    MessageGossipResult,
    _batched_converged,
    _disagreement,
    _finite_mean,
    _init_states,
    weak_dispatcher,
)
from repro.gossip.partnering import GlobalSampler, PartnerStrategy
from repro.gossip.vector import EstimatesWorkspace, PopulationStore, TripletVector
from repro.network.overlay import Overlay
from repro.network.transport import Message, Transport
from repro.sim.engine import Simulator
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range, check_positive

__all__ = ["AsyncMessageGossipEngine"]


class AsyncMessageGossipEngine(CycleEngine):
    """Algorithm 2 on per-node Poisson clocks.

    Parameters
    ----------
    sim, transport, overlay:
        Simulation substrate (the engine registers delivery handlers).
    epsilon:
        Per-node relative convergence threshold between monitor samples.
    mean_interval:
        Mean of each node's exponential gossip interval (one "round" of
        wall-clock corresponds to ~1 send per node).
    check_interval:
        Simulated time between convergence checks; defaults to
        ``2 * mean_interval`` so a check window spans ~2 sends per node.
    max_time:
        Simulated-time budget per cycle.
    partnering:
        A :class:`~repro.gossip.partnering.PartnerStrategy` deciding who
        each node gossips with; defaults to the global sampler (the
        historical behaviour, bit-identical).
    mass_restore_budget:
        Self-healing threshold on ``mass_lost_fraction`` measured at the
        monitor cadence (``None`` disables the guard).  Because mass is
        in flight between Poisson sends, the guard always restarts: the
        engine quiesces the clocks, drains the transport, re-initializes
        every live node, and resumes — uniform renormalization would
        over-restore once in-flight mass landed, creating mass and
        tripping the one-sided conservation bound.
    """

    name = "async"

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        overlay: Overlay,
        *,
        epsilon: float = 1e-4,
        mean_interval: float = 1.0,
        check_interval: Optional[float] = None,
        max_time: float = 2000.0,
        partnering: Optional[PartnerStrategy] = None,
        mass_restore_budget: Optional[float] = None,
        rng: SeedLike = None,
    ) -> None:
        check_in_range("epsilon", epsilon, low=0.0, low_inclusive=False)
        check_positive("mean_interval", mean_interval)
        check_positive("max_time", max_time)
        if mass_restore_budget is not None:
            check_in_range(
                "mass_restore_budget", mass_restore_budget,
                low=0.0, high=1.0, low_inclusive=False, high_inclusive=False,
            )
        self.sim = sim
        self.transport = transport
        self.overlay = overlay
        self.epsilon = float(epsilon)
        self.mean_interval = float(mean_interval)
        self.check_interval = (
            float(check_interval) if check_interval is not None else 2.0 * mean_interval
        )
        self.max_time = float(max_time)
        if partnering is None:
            partnering = GlobalSampler()
        self.partnering = partnering
        self.partnering.bind(sim, transport, overlay)
        self.mass_restore_budget = (
            float(mass_restore_budget) if mass_restore_budget is not None else None
        )
        #: gossip halves delivered to departed/uninitialized nodes
        self.discarded = 0
        self._rng = as_generator(rng)
        #: this cycle's participants -> their store rows
        self._states: Dict[int, TripletVector] = {}
        #: every node's triplet vector, one row each (see message_engine)
        self._store = PopulationStore(overlay.n)
        #: alternating output slots for the monitor's estimate matrices
        self._est_ws = EstimatesWorkspace()
        self._running = False
        self._gen = 0
        self.sends = 0
        self.cycle_steps = []
        dispatch = weak_dispatcher(self)
        for node in range(overlay.n):
            transport.register(node, dispatch)

    # -- protocol ----------------------------------------------------------

    def _on_message(self, msg: Message) -> None:
        if msg.kind != "gossip":
            self.partnering.on_message(msg)
            return
        state = self._states.get(msg.dst)
        if state is None or not self.overlay.is_alive(msg.dst):
            self.discarded += 1  # mass vanished without a transport drop
            return
        state.merge(msg.payload)

    def _node_process(self, node: int, gen: int) -> Iterator[float]:
        """One peer's Poisson gossip clock.

        ``gen`` is the spawn generation: a cycle restart bumps the
        engine generation, so clocks from before the restart exit at
        their next wake instead of gossiping stale state.
        """
        while self._running and gen == self._gen:
            yield float(self._rng.exponential(self.mean_interval))
            if (
                not self._running
                or gen != self._gen
                or not self.overlay.is_alive(node)
            ):
                return
            state = self._states.get(node)
            if state is None:
                return
            partner = self.partnering.partner(node)
            if partner is None:
                continue
            sent = state.halve()
            self.transport.send(
                node, partner, sent, kind="gossip", size=sent.payload_size()
            )
            self.sends += 1

    def _held(self) -> List[int]:
        """Live nodes that hold a vector this cycle, ascending."""
        return [node for node in self.overlay.alive_nodes().tolist() if node in self._states]

    def run_cycle(
        self,
        S: Union[TrustInput, Sequence[Mapping[int, float]]],
        v_prior: np.ndarray,
    ) -> MessageGossipResult:
        """One asynchronous aggregation cycle; see the module docstring.

        ``S`` is any form :func:`~repro.gossip.base.local_rows` accepts:
        a :class:`~repro.trust.matrix.TrustMatrix`, raw matrix, or a
        per-node sequence of sparse rows.
        """
        n = self.overlay.n
        rows = local_rows(S, n)
        v_prior = np.asarray(v_prior, dtype=np.float64)
        if v_prior.shape != (n,):
            raise ValidationError(f"v_prior must have shape ({n},)")

        exact = exact_aggregate(rows, v_prior, n)

        san = self.sanitizer
        if san is not None:
            san.begin_cycle(self.name)
        prior_map = {i: float(v_prior[i]) for i in range(n)}
        store = self._store
        self._states, initial_mass = _init_states(store, self.overlay, rows, prior_map)
        initial_live = frozenset(self._states)
        track_mass = san is not None or self.mass_restore_budget is not None

        sent_before = self.transport.sent
        dropped_before = self.transport.drop_count
        discarded_before = self.discarded
        self.sends = 0
        self._running = True
        self._gen += 1
        self.partnering.start()
        for node in self.overlay.alive_nodes().tolist():
            self.sim.process(self._node_process(int(node), self._gen))

        deadline = self.sim.now + self.max_time
        prev_ids: tuple = ()
        prev_mat: Optional[np.ndarray] = None
        converged = False
        checks = 0
        restorations = 0
        while self.sim.now < deadline:
            self.sim.run(until=min(self.sim.now + self.check_interval, deadline))
            checks += 1
            cur_ids = tuple(
                node
                for node in self.overlay.alive_nodes().tolist()
                if node in self._states
            )
            # Async sends leave mass in flight at sample time, so only
            # the one-sided law holds mid-cycle: node-held mass never
            # exceeds what the cycle started with.
            mass_now = store.mass(cur_ids) if track_mass else 0.0
            if san is not None:
                for node in cur_ids:
                    self._states[node].check_invariants(san, owner=node, step=checks)
                san.check_mass_bounded(
                    "total x+w mass", mass_now, initial_mass, step=checks
                )
            if (
                self.mass_restore_budget is not None
                and initial_mass > 0.0
                and mass_now < (1.0 - self.mass_restore_budget) * initial_mass
            ):
                # The cheap sample counts only node-held mass; a large
                # share can legitimately be *in flight* between Poisson
                # sends (about latency/mean_interval messages per node,
                # each carrying half its sender's mass).  A restart is
                # destructive, so verify first: quiesce the clocks, let
                # in-flight traffic land, and re-measure.
                self._running = False
                self.sim.run(
                    until=self.sim.now + 3.0 * max(self.transport.latency, 1e-9)
                )
                drained_mass = store.mass(self._held())
                if drained_mass < (1.0 - self.mass_restore_budget) * initial_mass:
                    # Genuine loss (drops, departures, discards): restart
                    # every live node from a fresh vector.  Rounds
                    # already spent stay counted (self.sends accumulates).
                    restorations += 1
                    self._states, initial_mass = _init_states(store, self.overlay, rows, prior_map)
                    initial_live = frozenset(self._states)
                    dropped_before = self.transport.drop_count
                    discarded_before = self.discarded
                    prev_ids, prev_mat = (), None
                # False alarm (the mass was in flight): resume the same
                # states under a new generation; the drain pause costs
                # simulated time but no progress.
                self._running = True
                self._gen += 1
                for node in self.overlay.alive_nodes().tolist():
                    if node in self._states:
                        self.sim.process(self._node_process(int(node), self._gen))
                continue
            cur_mat = store.estimates(cur_ids, workspace=self._est_ws)
            if (
                prev_mat is not None
                and checks >= 2
                and _batched_converged(cur_ids, cur_mat, prev_ids, prev_mat, self.epsilon)
            ):
                converged = True
                break
            prev_ids, prev_mat = cur_ids, cur_mat
        self._running = False
        self.partnering.stop()
        # Drain in-flight messages: mass sent but not yet delivered is
        # not lost, it is late — let it land before accounting.
        self.sim.run(until=self.sim.now + 3.0 * max(self.transport.latency, 1e-9))

        live = self.overlay.alive_nodes()
        held = self._held()
        node_estimates = store.estimates(held)
        v_next = _finite_mean(node_estimates)

        final_mass = store.mass(held)
        lost = 0.0 if initial_mass == 0 else max(0.0, 1.0 - final_mass / initial_mass)
        if san is not None:
            # Post-drain, nothing is in flight; with a lossless history
            # conservation must hold exactly, otherwise one-sided.
            live_set = frozenset(held)
            if (
                self.transport.drop_count == dropped_before
                and self.discarded == discarded_before
                and live_set == initial_live
            ):
                san.check_mass("total x+w mass (drained)", final_mass, initial_mass)
            else:
                san.check_mass_bounded(
                    "total x+w mass (drained)", final_mass, initial_mass
                )

        equivalent_rounds = int(round(self.sends / max(1, live.size)))
        self.cycle_steps.append(equivalent_rounds)
        return MessageGossipResult(
            v_next=v_next,
            exact=exact,
            steps=equivalent_rounds,
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
            f"AsyncMessageGossipEngine(n={self.overlay.n}, "
            f"mean_interval={self.mean_interval})"
        )
