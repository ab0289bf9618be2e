"""Message-level gossip engine on the discrete-event simulator.

Executes Algorithm 2 with *real messages*: per gossip round every live
node halves its triplet vector, keeps one half, and sends the other to a
random live partner through the :class:`~repro.network.transport.Transport`
— which may delay, lose, or (on failed links) drop it.  This engine
exists for fidelity and fault-injection:

* it validates the vectorized engine (same protocol, same convergence
  targets, agreement tested on matched instances);
* it is the vehicle for the robustness claims — message loss, link
  failure, and churn perturb the gossiped vector here, and the
  experiments measure by how much.

Rounds are paced at ``round_interval`` simulated time units, chosen
longer than the worst-case message latency so a round's sends are
delivered before the next round's halving (the paper's synchronous-step
abstraction).  Mass carried by lost messages simply vanishes; because
both ``x`` and ``w`` shares vanish together, the surviving ratio
estimates stay near the true value — the reason the protocol "does not
require error recovery mechanisms" (§2).

Node state lives in one :class:`~repro.gossip.vector.PopulationStore`
owned by the engine: node ``i``'s triplet vector is row ``i`` of an
``(n, n)`` x/w pair.  A round costs a fixed number of Python calls,
not one per message:

1. the strategy draws every live node's partner in node order in one
   call (:meth:`~repro.gossip.partnering.PartnerStrategy.partners`);
2. the store halves all senders in one pass into a fresh outbox;
3. the transport sends the round in the same order as one batch
   (:meth:`~repro.network.transport.Transport.send_many`), which the
   simulator schedules as one heap entry;
4. arrivals come back in stretches of simulated time, are masked by
   the receivers' liveness and cycle membership, and merge into the
   store in arrival order (:meth:`~repro.gossip.vector.PopulationStore.merge`).

The per-round estimate matrix and held mass are row reductions over the
store.  Every vector, step, counter and event count is bitwise the same
as drawing, halving, sending and delivering node by node
(``tests/test_gossip_message_parity.py``): partner draws touch only the
strategy's own RNG (the
:class:`~repro.gossip.partnering.PartnerStrategy` contract), the batch
applies the per-message fault model in send order and fires each
message as one simulator event, and a fault that fires between two
arrivals splits the batch there.

The engine registers one handler per node that holds it only weakly
(:func:`weak_dispatcher`), so the transport never keeps a dropped
engine alive and a discarded system is freed by reference counting.
Control traffic of the partner strategy still arrives through those
handlers; a round's batch holds the engine only until it is delivered.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.gossip.base import (
    CycleEngine,
    GossipCycleResult,
    TrustInput,
    exact_aggregate,
    local_rows,
)
from repro.gossip.convergence import average_relative_error
from repro.gossip.partnering import GlobalSampler, PartnerStrategy
from repro.gossip.vector import EstimatesWorkspace, PopulationStore, TripletVector
from repro.network.overlay import Overlay
from repro.network.transport import Message, Transport
from repro.sim.engine import Simulator
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range

__all__ = ["MessageGossipResult", "MessageGossipEngine", "weak_dispatcher"]


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


def _init_states(
    store: PopulationStore,
    overlay: Overlay,
    rows: Sequence[Mapping[int, float]],
    prior_map: Mapping[int, float],
) -> Tuple[Dict[int, TripletVector], float]:
    """Cycle initialization of every live node's store row.

    Returns the live node -> row-vector map and the rows' total mass.
    """
    live = overlay.alive_nodes().tolist()
    states = {
        node: store.row(node).reset(node, rows[node], prior_map, n=store.n)
        for node in live
    }
    return states, store.mass(live)


def _disagreement(node_estimates: np.ndarray) -> float:
    """Max over components of the live-node estimate spread."""
    known = np.isfinite(node_estimates)
    if node_estimates.size == 0 or not known.any():
        return float("inf")
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
    over the same count) but never warns on an empty column.
    """
    known = np.isfinite(node_estimates)
    total = np.where(known, node_estimates, 0.0).sum(axis=0)
    count = known.sum(axis=0)
    mean = np.divide(total, count, out=np.zeros_like(total), where=count > 0)
    return np.nan_to_num(mean, nan=0.0, posinf=0.0)


def _batched_converged(
    cur_ids: Tuple[int, ...],
    cur: np.ndarray,
    prev_ids: Tuple[int, ...],
    prev: np.ndarray,
    epsilon: float,
) -> bool:
    """Epsilon criterion over the whole live population in one pass.

    ``cur``/``prev`` are ``(len(ids), n)`` estimate matrices from
    :meth:`~repro.gossip.vector.PopulationStore.estimates`.  The
    semantics match the historical per-node loop: every current node
    must have been sampled last round, its finite pattern must be
    unchanged (newly-heard-of peers mean mass is still spreading), it
    must have at least one finite estimate, and the relative change over
    finite entries must not exceed ``epsilon`` anywhere.
    """
    if len(cur_ids) == 0:
        return True
    if cur_ids == prev_ids:
        aligned = prev
    else:
        pos = {node: i for i, node in enumerate(prev_ids)}
        idx = [pos.get(node, -1) for node in cur_ids]
        if min(idx) < 0:
            return False
        aligned = prev[idx]
    finite = np.isfinite(cur)
    if (finite != np.isfinite(aligned)).any():
        return False
    if not finite.any(axis=1).all():
        return False
    with np.errstate(invalid="ignore"):
        num = np.abs(np.where(finite, cur - aligned, 0.0))
        den = np.maximum(np.abs(np.where(finite, aligned, 1.0)), 1e-12)
        worst = float((num / den).max())
    return worst <= epsilon


class MessageGossipEngine(CycleEngine):
    """Runs gossiped aggregation cycles as timed messages on the DES.

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
        exceeds this value at a round boundary, the engine restores the
        cycle's mass budget (``None`` disables the guard).
    mass_restore_action:
        ``"renormalize"`` — uniformly rescale every surviving vector by
        ``initial/current`` mass (ratio-preserving, estimates untouched);
        ``"restart"`` — re-initialize all live nodes' vectors and redo
        the cycle from the current round.  Either way the one-sided
        conservation bound stays intact: restoration never pushes held
        mass above the cycle's initial budget.
    """

    name = "message"

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        overlay: Overlay,
        *,
        epsilon: float = 1e-4,
        round_interval: float = 2.0,
        max_rounds: int = 500,
        min_rounds: int = 2,
        partnering: Optional[PartnerStrategy] = None,
        mass_restore_budget: Optional[float] = None,
        mass_restore_action: str = "renormalize",
        rng: SeedLike = None,
    ) -> None:
        check_in_range("epsilon", epsilon, low=0.0, low_inclusive=False)
        if round_interval <= 1.5 * transport.latency:
            raise ValidationError(
                f"round_interval={round_interval} must exceed max message latency "
                f"{1.5 * transport.latency} or rounds overlap"
            )
        if max_rounds < 1:
            raise ValidationError(f"max_rounds must be >= 1, got {max_rounds}")
        if mass_restore_budget is not None:
            check_in_range(
                "mass_restore_budget", mass_restore_budget,
                low=0.0, high=1.0, low_inclusive=False, high_inclusive=False,
            )
        if mass_restore_action not in ("renormalize", "restart"):
            raise ValidationError(
                f"mass_restore_action must be 'renormalize' or 'restart', "
                f"got {mass_restore_action!r}"
            )
        self.sim = sim
        self.transport = transport
        self.overlay = overlay
        self.epsilon = float(epsilon)
        self.round_interval = float(round_interval)
        self.max_rounds = int(max_rounds)
        self.min_rounds = int(min_rounds)
        if partnering is None:
            partnering = GlobalSampler()
        self.partnering = partnering
        self.partnering.bind(sim, transport, overlay)
        self.mass_restore_budget = (
            float(mass_restore_budget) if mass_restore_budget is not None else None
        )
        self.mass_restore_action = mass_restore_action
        #: gossip halves delivered to departed/uninitialized nodes (their
        #: mass vanished without a transport drop being counted)
        self.discarded = 0
        self._rng = as_generator(rng)
        #: this cycle's participants -> their store rows
        self._states: Dict[int, TripletVector] = {}
        #: every node's triplet vector, one row each, recycled across
        #: cycles (reset in place, never reallocated)
        self._store = PopulationStore(overlay.n)
        #: alternating output slots for the per-round estimate matrices
        self._est_ws = EstimatesWorkspace()
        self.cycle_steps = []
        dispatch = weak_dispatcher(self)
        for node in range(overlay.n):
            transport.register(node, dispatch)

    # -- protocol --------------------------------------------------------

    def _on_message(self, msg: Message) -> None:
        # Gossip halves arrive in round batches (_on_gossip); the
        # registered handlers carry the partner strategy's control traffic.
        self.partnering.on_message(msg)

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
        nodes = np.flatnonzero(self._members() & self.overlay.alive_mask())
        partners = self.partnering.partners(nodes)
        sending = partners >= 0
        senders, dst = nodes[sending], partners[sending]
        outbox, sizes = self._store.halve(senders)
        self.transport.send_many(senders, dst, outbox, sizes, partial(self._on_gossip, dst))

    def _members(self) -> np.ndarray:
        """Boolean mask of this cycle's participants, by node id."""
        mask = np.zeros(self.overlay.n, dtype=bool)
        mask[np.fromiter(self._states, dtype=np.intp, count=len(self._states))] = True
        return mask

    def _on_gossip(self, dst: np.ndarray, outbox: np.ndarray, idx: np.ndarray) -> None:
        """Arrival of round messages ``idx``: merge them, in arrival order.

        A half that reaches a departed node, or one outside the cycle
        (partial views go stale), is discarded: its mass vanishes
        without a transport drop, so it is counted here or the exact
        conservation check would fire on a lossy history.
        """
        to = dst[idx]
        held = (self._members() & self.overlay.alive_mask())[to]
        self.discarded += int(idx.size - np.count_nonzero(held))
        self._store.merge(to[held], outbox, idx[held])

    def run_cycle(
        self,
        S: Union[TrustInput, Sequence[Mapping[int, float]]],
        v_prior: np.ndarray,
        *,
        raise_on_budget: bool = False,
    ) -> MessageGossipResult:
        """Execute one full aggregation cycle and return its outcome.

        Parameters
        ----------
        S:
            The trust matrix — a :class:`~repro.trust.matrix.TrustMatrix`
            (its cached sparse-row view is reused across cycles), a raw
            array/sparse matrix, or a per-node sequence of sparse rows
            ``{j: s_ij}``.
        v_prior:
            Previous-cycle reputation vector ``V(t-1)`` (dense, length n).
        raise_on_budget:
            Raise :class:`ConvergenceError` if the round budget is hit;
            by default the best-effort result is returned (fault
            injection legitimately slows convergence).
        """
        n = self.overlay.n
        rows = local_rows(S, n)
        v_prior = np.asarray(v_prior, dtype=np.float64)
        if v_prior.shape != (n,):
            raise ValidationError(f"v_prior must have shape ({n},)")

        exact = exact_aggregate(rows, v_prior, n)
        prior_map = {i: float(v_prior[i]) for i in range(n)}
        san = self.sanitizer
        if san is not None:
            san.begin_cycle(self.name)
        store = self._store
        self._states, initial_mass = _init_states(store, self.overlay, rows, prior_map)
        initial_live = frozenset(self._states)
        track_mass = san is not None or self.mass_restore_budget is not None

        sent_before = self.transport.sent
        dropped_before = self.transport.drop_count
        discarded_before = self.discarded
        prev_ids: Tuple[int, ...] = ()
        prev_mat: Optional[np.ndarray] = None
        steps = 0
        converged = False
        restorations = 0
        self.partnering.start()
        for round_no in range(1, self.max_rounds + 1):
            self._gossip_round()
            self.sim.run(until=self.sim.now + self.round_interval)
            steps = round_no
            cur_ids = tuple(
                node
                for node in self.overlay.alive_nodes().tolist()
                if node in self._states
            )
            # Rounds are paced past the max latency, so no mass is in
            # flight here: the live nodes' rows hold the whole surviving
            # (x, w) population.  Only the sanitizer and the restore
            # guard read it.
            mass_now = store.mass(cur_ids) if track_mass else 0.0
            if san is not None:
                for node in cur_ids:
                    self._states[node].check_invariants(san, owner=node, step=round_no)
                if (
                    self.transport.drop_count == dropped_before
                    and self.discarded == discarded_before
                    and frozenset(cur_ids) == initial_live
                ):
                    # Lossless round history: push-sum conserves exactly.
                    san.check_mass(
                        "total x+w mass", mass_now, initial_mass, step=round_no
                    )
                else:
                    # Drops and departures may destroy mass, but gossip
                    # must never create it.
                    san.check_mass_bounded(
                        "total x+w mass", mass_now, initial_mass, step=round_no
                    )
            if (
                self.mass_restore_budget is not None
                and initial_mass > 0.0
                and mass_now < (1.0 - self.mass_restore_budget) * initial_mass
            ):
                restorations += 1
                if self.mass_restore_action == "renormalize" and mass_now > 0.0:
                    # Ratio-preserving: estimates are untouched, only the
                    # mass budget is restored, so convergence tracking
                    # carries straight through.  Departed nodes' stale
                    # vectors are dropped first — their mass is written
                    # off now, so a later rejoin cannot resurrect it on
                    # top of the restored budget (which would create
                    # mass and break the one-sided bound).
                    self._states = {node: self._states[node] for node in cur_ids}
                    factor = initial_mass / mass_now
                    for node in cur_ids:
                        self._states[node].scale(factor)
                else:
                    # Restart: live nodes re-enter the cycle from fresh
                    # vectors; the rounds already spent stay counted.
                    self._states, initial_mass = _init_states(store, self.overlay, rows, prior_map)
                    initial_live = frozenset(self._states)
                    dropped_before = self.transport.drop_count
                    discarded_before = self.discarded
                    prev_ids, prev_mat = (), None
                    continue
            # Workspace-backed: the matrix lands in one of two
            # alternating reusable slots, so prev_mat (the other slot)
            # stays intact for the convergence comparison below.
            cur_mat = store.estimates(cur_ids, workspace=self._est_ws)
            if prev_mat is not None and round_no >= self.min_rounds:
                if _batched_converged(cur_ids, cur_mat, prev_ids, prev_mat, self.epsilon):
                    converged = True
                    break
            prev_ids, prev_mat = cur_ids, cur_mat
        self.partnering.stop()
        if not converged and raise_on_budget:
            raise ConvergenceError(
                f"message gossip exceeded {self.max_rounds} rounds",
                steps=self.max_rounds,
            )

        live = self.overlay.alive_nodes()
        held = [node for node in live.tolist() if node in self._states]
        node_estimates = store.estimates(held)
        v_next = _finite_mean(node_estimates)

        final_mass = store.mass(held)
        lost = 0.0 if initial_mass == 0 else max(0.0, 1.0 - final_mass / initial_mass)

        self.cycle_steps.append(steps)
        return MessageGossipResult(
            v_next=v_next,
            exact=exact,
            steps=steps,
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

    def finalize(self, *, bracket_bits: Optional[int] = None) -> Dict[int, object]:
        """Algorithm 2 line 22: replace each triplet with its ``<v_j, j>`` pair.

        After a converged cycle, every live node materializes its final
        per-peer score estimates.  Returns, per live node id, either a
        plain ``{peer id -> score}`` dict (``bracket_bits=None``) or a
        :class:`~repro.storage.reputation_store.BloomReputationStore`
        holding the quantized scores — the paper's "efficient reputation
        storage with Bloom filters" applied at the point the protocol
        produces the vector.

        Non-finite estimates (peers whose mass never reached this node)
        are stored as zero: the node simply knows nothing about them.
        """
        n = self.overlay.n
        out: Dict[int, object] = {}
        for node in self.overlay.alive_nodes().tolist():
            state = self._states.get(node)
            if state is None:
                continue
            estimates = state.estimates_array(n)
            scores = np.where(np.isfinite(estimates), estimates, 0.0)
            scores = np.clip(scores, 0.0, None)
            if bracket_bits is None:
                out[node] = {
                    j: float(scores[j]) for j in range(n) if scores[j] > 0.0
                }
            else:
                from repro.storage.reputation_store import BloomReputationStore

                store = BloomReputationStore(bracket_bits=bracket_bits)
                store.build(scores)
                out[node] = store
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MessageGossipEngine(n={self.overlay.n}, epsilon={self.epsilon}, "
            f"round_interval={self.round_interval})"
        )
