"""Bitwise parity of the store-backed DES engine with a per-node oracle.

On the round clock the message engine draws a round's partners in one
call, halves all senders in one pass over its
:class:`~repro.gossip.vector.PopulationStore`, sends the round as one
transport batch that the simulator delivers in stretches, merges the
arrivals in one layered add, and reduces the store's rows for mass and
estimates.  The oracle below restores the node-by-node protocol —
per-node ``partner``/``halve``/copy/``payload_size``/``send``,
per-message delivery through the registered handlers, and per-node
``mass()`` and estimate gathers (:mod:`tests.triplet_oracle`) — on the
same substrate.  Every vector, counter and event count must match bit
for bit, also when faults land in the middle of a round.  On the
Poisson clock the oracle swaps in the per-node reductions.
"""

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.message_engine import (
    AsyncMessageGossipEngine,
    MessageGossipEngine,
    weak_dispatcher,
)
from repro.gossip.partnering import make_strategy, strategy_names
from repro.gossip.vector import EstimatesWorkspace, PopulationStore
from repro.network.faultplan import named_plan, plan_names
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.utils.rng import RngStreams
from tests.triplet_oracle import NodeStore, NodeVector

N = 40


class _PerNodeStore(NodeStore):
    """Store whose reductions loop over the nodes' row views one by one."""

    __slots__ = ()

    def mass(self, rows: Optional[Sequence[int]] = None) -> float:
        total = 0.0
        for node in range(self.n) if rows is None else rows:
            mx, mw = self.row(node).mass()
            total += mx + mw
        return total

    def estimates(
        self,
        rows: Optional[Sequence[int]] = None,
        *,
        workspace: Optional[EstimatesWorkspace] = None,
    ) -> np.ndarray:
        nodes = range(self.n) if rows is None else rows
        return NodeVector.estimates_matrix([self.row(node) for node in nodes], self.n)


class _PerNodeMessageEngine(MessageGossipEngine):
    """The message engine with the node-by-node round, delivery and reductions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._store = _PerNodeStore(self.overlay.n)

    def _gossip_round(self) -> None:
        for node in self.overlay.alive_nodes().tolist():
            if not self._member[node]:
                continue
            state = self._store.row(node)
            partner = self.partnering.partner(node)
            if partner is None:
                continue
            sent = state.halve()
            self.transport.send(
                node, partner, sent, kind="gossip", size=sent.payload_size()
            )

    def _on_message(self, msg) -> None:
        if msg.kind != "gossip":
            self.partnering.on_message(msg)
            return
        if not (self._member[msg.dst] and self.overlay.is_alive(msg.dst)):
            self.discarded += 1
            return
        self._store.row(msg.dst).merge(msg.payload)


class _PerNodeAsyncEngine(AsyncMessageGossipEngine):
    """The async engine with per-node mass and estimate reductions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._store = _PerNodeStore(self.overlay.n)


def _fingerprint(res) -> Tuple:
    return (
        res.v_next.tobytes(),
        res.node_estimates.tobytes(),
        res.live_nodes.tobytes(),
        res.steps,
        res.converged,
        res.messages_sent,
        res.messages_dropped,
        res.mass_lost_fraction,
        res.mass_restorations,
        res.gossip_error,
        res.node_disagreement,
    )


def _run(
    cls,
    *,
    strategy: str = "global",
    plan: Optional[str] = None,
    loss: float = 0.0,
    budget: Optional[float] = None,
    sanitize: bool = False,
    cycles: int = 1,
    seed: int = 7,
    faults: Optional[Callable] = None,
    latency: float = 1.0,
) -> List:
    streams = RngStreams(seed)
    S = synthetic_trust_matrix(N, rng=streams.get("matrix"))
    sim = Simulator()
    overlay = Overlay(gnutella_like(N, rng=streams.get("topology")), rng=streams.get("overlay"))
    transport = Transport(sim, latency=latency, loss_rate=loss, rng=streams.get("net"))
    kwargs = dict(
        partnering=make_strategy(strategy, rng=streams.get("membership")),
        mass_restore_budget=budget,
        rng=streams.get("gossip"),
    )
    if not issubclass(cls, AsyncMessageGossipEngine):
        kwargs.update(round_interval=2.0, max_rounds=150)
    engine = cls(sim, transport, overlay, **kwargs)
    if sanitize:
        engine.arm_sanitizer()
    if plan is not None:
        named_plan(plan, horizon=100.0, rng=streams.get("faults")).schedule(
            sim, transport, overlay, on_rejoin=engine.partnering.node_joined
        )
    if faults is not None:
        faults(sim, transport, overlay, engine)
    v = np.full(N, 1.0 / N)
    out: List = []
    for _ in range(cycles):
        res = engine.run_cycle(S, v)
        out.append(_fingerprint(res))
        v = res.v_next
    out.append(
        (
            transport.sent,
            transport.bytes_sent,
            transport.drop_count,
            engine.discarded,
            sim.events_processed,
            transport.delivered,
            transport.dropped_loss,
            transport.dropped_link,
            transport.dropped_unregistered,
        )
    )
    return out


def _assert_parity(engine=MessageGossipEngine, oracle=_PerNodeMessageEngine, **scenario) -> List:
    batched = _run(engine, **scenario)
    assert batched == _run(oracle, **scenario)
    return batched


class TestMessageParity:
    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_loss(self, loss):
        out = _assert_parity(loss=loss)
        assert (out[0][6] > 0) == (loss > 0)  # drops happened iff lossy

    @pytest.mark.parametrize("strategy", strategy_names())
    def test_strategies(self, strategy):
        _assert_parity(strategy=strategy, loss=0.05)

    @pytest.mark.parametrize("plan", plan_names())
    def test_fault_plans(self, plan):
        _assert_parity(plan=plan, budget=0.25)

    @pytest.mark.parametrize("action", ["renormalize", "restart"])
    def test_restore_actions(self, action):
        # The clock picks the action: the round clock renormalizes, the
        # Poisson clock drains, re-measures and restarts.
        engines = {
            "renormalize": (MessageGossipEngine, _PerNodeMessageEngine),
            "restart": (AsyncMessageGossipEngine, _PerNodeAsyncEngine),
        }[action]
        out = _assert_parity(*engines, loss=0.2, budget=0.05)
        assert out[0][8] > 0  # the guard fired

    def test_sanitizer_armed(self):
        _assert_parity(sanitize=True)
        _assert_parity(sanitize=True, plan="crash", budget=0.25)

    @pytest.mark.parametrize("loss", [0.0, 0.1])
    def test_zero_latency(self, loss):
        # every half of a round arrives at the instant it was sent
        _assert_parity(latency=0.0, loss=loss, plan="crash", budget=0.25)

    def test_two_warm_cycles(self):
        out = _assert_parity(cycles=2, loss=0.05)
        assert out[0][0] != out[1][0]


def _link_fails_mid_flight(sim, transport, overlay, engine):
    # Round 3 sends at t=4 and delivers in [4.5, 5.5]: the links of nodes
    # 0-4 go down at 4.95 and come back at 5.25.
    def fail():
        for u in range(5):
            for v in range(N):
                if u != v:
                    transport.fail_link(u, v, duration=0.3)

    sim.call_at(4.95, fail)


def _partition_mid_round(sim, transport, overlay, engine):
    sim.call_at(8.95, transport.links.set_partition, {i: i % 2 for i in range(N)})
    sim.call_at(9.3, transport.links.clear_partition)


def _receivers_depart_mid_round(sim, transport, overlay, engine):
    for node in (5, 6, 11):
        sim.call_at(12.95, overlay.leave, node)
    sim.call_at(20.95, overlay.join, 5)
    sim.call_at(20.95, engine.partnering.node_joined, 5)


def _destination_unregisters_mid_round(sim, transport, overlay, engine):
    sim.call_at(16.95, transport.unregister, 7)
    sim.call_at(16.96, transport.unregister, 8)
    sim.call_at(17.2, transport.register, 7, weak_dispatcher(engine))


class TestFaultsInsideARound:
    """Faults that fire between two deliveries of one round's batch."""

    @pytest.mark.parametrize("loss", [0.0, 0.1])
    def test_link_fails_mid_flight(self, loss):
        out = _assert_parity(faults=_link_fails_mid_flight, loss=loss)
        assert out[-1][7] > 0  # in-flight messages hit the failed links

    @pytest.mark.parametrize("strategy", ["global", "neighbors"])
    def test_partition_installed_mid_round(self, strategy):
        out = _assert_parity(faults=_partition_mid_round, strategy=strategy)
        assert out[-1][7] > 0

    @pytest.mark.parametrize("budget", [None, 0.25])
    def test_receiver_departs_mid_round(self, budget):
        out = _assert_parity(faults=_receivers_depart_mid_round, budget=budget)
        assert out[-1][3] > 0  # halves reached departed receivers

    def test_destination_unregistered_mid_round(self):
        out = _assert_parity(faults=_destination_unregisters_mid_round, loss=0.05)
        assert out[-1][8] > 0  # dropped_unregistered


class TestNumpyStreams:
    """numpy draws a batch as the same stream as one scalar draw per item.

    The batched message round draws every partner with one
    ``integers(n, size=k)`` (:meth:`Overlay.random_partners`) and every
    latency with one ``random(k)`` (:meth:`Transport.send_many`); its
    parity with the per-node round rests on these equalities.
    """

    WHY = (
        "numpy's {} no longer equals {} scalar draws: the batched message "
        "round would diverge from the per-node round"
    )

    @pytest.mark.parametrize("n", [97, 128, 1000, 100_000])
    @pytest.mark.parametrize("k", [1, 2, 7, 128])
    def test_integers(self, n, k):
        batched, scalar = np.random.default_rng(n + k), np.random.default_rng(n + k)
        got = batched.integers(n, size=k).tolist()
        want = [int(scalar.integers(n)) for _ in range(k)]
        why = self.WHY.format(f"integers({n}, size={k})", k)
        assert got == want, why
        # the next draw too: an odd count leaves half a word buffered
        assert batched.integers(n) == scalar.integers(n), why
        assert batched.bit_generator.state == scalar.bit_generator.state, why

    @pytest.mark.parametrize("k", [1, 2, 7, 128])
    def test_random(self, k):
        batched, scalar = np.random.default_rng(k), np.random.default_rng(k)
        got = batched.random(k).tolist()
        want = [scalar.random() for _ in range(k)]
        why = self.WHY.format(f"random({k})", k)
        assert got == want, why
        assert batched.random() == scalar.random(), why
        assert batched.bit_generator.state == scalar.bit_generator.state, why


class TestAsyncParity:
    @pytest.mark.parametrize("strategy", ["global", "neighbors"])
    def test_crash(self, strategy):
        scenario = dict(strategy=strategy, plan="crash", budget=0.25, sanitize=True)
        assert _run(AsyncMessageGossipEngine, **scenario) == _run(
            _PerNodeAsyncEngine, **scenario
        )


class TestPartnerPurity:
    """``partner()`` draws only from its strategy's RNG: no sends, no events."""

    @pytest.mark.parametrize("strategy", strategy_names())
    def test_partner_touches_no_substrate(self, strategy):
        streams = RngStreams(3)
        sim = Simulator()
        overlay = Overlay(gnutella_like(N, rng=streams.get("topology")), rng=streams.get("overlay"))
        transport = Transport(sim, latency=1.0, loss_rate=0.1, rng=streams.get("net"))
        strat = make_strategy(strategy, rng=streams.get("membership"))
        strat.bind(sim, transport, overlay)
        strat.start()
        sim.run(until=20.0)  # let maintenance populate the views
        queued = len(sim._queue)
        sent = transport.sent
        rng_state = transport._rng.bit_generator.state
        drawn = [strat.partner(node) for node in overlay.alive_nodes().tolist() * 3]
        assert any(p is not None for p in drawn)
        assert len(sim._queue) == queued
        assert transport.sent == sent
        assert transport._rng.bit_generator.state == rng_state
        strat.stop()

    @staticmethod
    def _started(strategy):
        streams = RngStreams(3)
        sim = Simulator()
        overlay = Overlay(gnutella_like(N, rng=streams.get("topology")), rng=streams.get("overlay"))
        transport = Transport(sim, latency=1.0, loss_rate=0.1, rng=streams.get("net"))
        strat = make_strategy(strategy, rng=streams.get("membership"))
        strat.bind(sim, transport, overlay)
        strat.start()
        sim.run(until=20.0)
        for node in (3, 8, 21):
            overlay.leave(node)
        return strat, overlay

    @pytest.mark.parametrize("strategy", strategy_names())
    def test_partners_replays_partner_calls(self, strategy):
        batched, batched_overlay = self._started(strategy)
        single, single_overlay = self._started(strategy)
        nodes = batched_overlay.alive_nodes().tolist() * 3 + [3, 8]
        want = [single.partner(node) for node in nodes]
        got = batched.partners(nodes).tolist()
        assert got == [-1 if p is None else p for p in want]
        for a, b in ((batched, single), (batched_overlay, single_overlay)):
            assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_global_partners_with_one_live_node_draw_nothing(self):
        strat, overlay = self._started("global")
        for node in overlay.alive_nodes().tolist()[1:]:
            overlay.leave(node)
        state = overlay._rng.bit_generator.state
        assert strat.partners([0, 1, 2]).tolist() == [-1, -1, -1]
        assert overlay._rng.bit_generator.state == state


class TestStoreRows:
    def test_reset_rejects_ids_beyond_the_store(self):
        store = PopulationStore(4)
        row = store.row(1)
        with pytest.raises(ValidationError):
            row.reset(1, {4: 1.0}, {1: 0.5}, n=4)
        with pytest.raises(ValidationError):
            store.row(0).reset(5, {}, {5: 1.0})
        assert store.x.shape == (4, 4)

    def test_reset_and_merge_write_the_row_in_place(self):
        store = NodeStore(3)
        row = store.row(2)
        assert store.row(2) is row
        row.reset(2, {0: 0.5, 1: 0.5}, {2: 0.4}, n=3)
        np.testing.assert_array_equal(store.x[2], [0.2, 0.2, 0.0])
        np.testing.assert_array_equal(store.w[2], [0.0, 0.0, 1.0])
        row.merge(NodeVector.initial(0, {}, {0: 1.0}, n=3))
        np.testing.assert_array_equal(store.w[2], [1.0, 0.0, 1.0])

    def test_batched_halve_matches_per_node_halve(self):
        store = NodeStore(5)
        ref = []
        for node in range(5):
            store.row(node).reset(node, {(node + 1) % 5: 1.0}, {node: 0.2}, n=5)
            ref.append(store.row(node).copy())
        outbox, sizes = store.halve([1, 3, 4])
        for k, node in enumerate([1, 3, 4]):
            sent = ref[node].halve()
            assert outbox[k, :5].tobytes() == sent._x.tobytes()
            assert outbox[k, 5:].tobytes() == sent._w.tobytes()
            assert store.x[node].tobytes() == ref[node]._x.tobytes()
            assert sizes[k] == sent.payload_size()
        assert store.w[0, 0] == 1.0  # a non-sender keeps its whole vector

    def test_halve_row_matches_per_node_halve(self):
        store = NodeStore(5)
        store.row(3).reset(3, {1: 0.25, 4: 0.75}, {3: 0.2}, n=5)
        ref = store.row(3).copy()
        half, size = store.halve_row(3)
        sent = ref.halve()
        assert half.tobytes() == np.concatenate([sent._x, sent._w]).tobytes()
        assert store.xw[3].tobytes() == half.tobytes()
        assert size == sent.payload_size() == 3
        half[0] = 9.0  # the sent half is a copy, not the row
        assert store.x[3, 0] == 0.0

    def test_mass_and_estimates_match_per_node_loops(self):
        rng = np.random.default_rng(0)
        store, oracle = PopulationStore(6), _PerNodeStore(6)
        store.x[:] = rng.random((6, 6)) * (rng.random((6, 6)) < 0.5)
        store.w[:] = rng.random((6, 6)) * (rng.random((6, 6)) < 0.5)
        oracle.x[:] = store.x
        oracle.w[:] = store.w
        for rows in (None, [0, 2, 5], []):
            assert store.mass(rows) == oracle.mass(rows)
            assert store.estimates(rows).tobytes() == oracle.estimates(rows).tobytes()
