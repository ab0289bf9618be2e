"""Bitwise parity of the store-backed DES engine with a per-node oracle.

The message engine initializes a cycle with one scatter of the trust
matrix's CSR into its :class:`~repro.gossip.vector.PopulationStore`.  On
the round clock it draws a round's partners in one call, halves all
senders in one pass over the store, sends the round as one transport
batch that the simulator delivers in stretches, merges the arrivals in
one scatter-add, and reduces the store's rows for mass and estimates.
The oracle below restores the node-by-node protocol — per-node
``reset`` from row mappings, ``partner``/``halve``/copy/``payload_size``/
``send``, per-message delivery through the registered handlers, and
per-node ``mass()`` and estimate gathers (:mod:`tests.triplet_oracle`) —
on the same substrate.  Every vector, counter and event count must
match bit for bit, also when faults land in the middle of a round.  On
the Poisson clock the oracle swaps in the per-node initialization and
reductions.
:class:`TestKernelPins` holds the store kernels against the forms they
replaced.
"""

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from scipy import sparse

from repro.errors import ValidationError
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.message_engine import (
    _CHECK_ROWS,
    AsyncMessageGossipEngine,
    MessageGossipEngine,
    _batched_converged,
    weak_dispatcher,
)
from repro.gossip.partnering import make_strategy, strategy_names
from repro.gossip.vector import PopulationStore, _estimates_into
from repro.network.faultplan import named_plan, plan_names
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.utils.rng import RngStreams
from tests.triplet_oracle import NodeStore, NodeVector, three_pass_estimates

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

    def estimates(self, rows: Optional[Sequence[int]] = None) -> np.ndarray:
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
    sim.call_at(16.95, transport._handlers.pop, 7)
    sim.call_at(16.96, transport._handlers.pop, 8)
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
        store = NodeStore(4)
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
        outbox, known = store.halve([1, 3, 4])
        sizes = []
        for k, node in enumerate([1, 3, 4]):
            sent = ref[node].halve()
            assert outbox[k, :5].tobytes() == sent._x.tobytes()
            assert outbox[k, 5:].tobytes() == sent._w.tobytes()
            assert store.x[node].tobytes() == ref[node]._x.tobytes()
            sizes.append(sent.payload_size())
        assert known == sum(sizes)
        assert store.w[0, 0] == 1.0  # a non-sender keeps its whole vector

    def test_halve_total_is_the_summed_payload_sizes(self):
        # rows holding x mass only, w mass only, both, nothing, and ids
        # whose x and w both carry mass (counted once)
        store, oracle = PopulationStore(6), NodeStore(6)
        store.x[0, [1, 4]] = [0.3, 0.7]
        store.w[1, [0, 2, 5]] = [1.0, 0.5, 0.25]
        store.x[2, [0, 3]], store.w[2, [3, 4]] = [0.2, 0.4], [1.0, 2.0]
        store.x[4, :], store.w[4, :] = 0.5, 0.5
        store.x[5, 5] = 5e-324  # halves to zero: the sent half does not carry it
        oracle.xw[:] = store.xw
        for rows in ([0, 1, 2, 3, 4, 5], [1, 3, 5], [2]):
            _, known = store.halve(rows)
            sizes = [oracle.row(node).halve().payload_size() for node in rows]
            assert known == sum(sizes)
            assert store.xw.tobytes() == oracle.xw.tobytes()
        assert sizes == [3]  # row 2 knows ids 0, 3 and 4

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

    def test_reset_matches_per_node_reset(self):
        rng = np.random.default_rng(1)
        raw = rng.random((6, 6)) * (rng.random((6, 6)) < 0.5)
        raw[2, 4] = 0.0
        S = sparse.csr_matrix(raw)
        S.data[S.data < 0.2] = 0.0  # explicit zeros: skipped, as in the rows
        v = np.array([0.3, 0.0, 0.2, -0.1, np.nan, 0.6])
        store, oracle = PopulationStore(6), NodeStore(6)
        store.xw[:] = oracle.xw[:] = 7.0  # stale rows: only `rows` are rewritten
        rows = np.array([0, 1, 2, 3, 4])
        store.reset(rows, S, v)
        oracle.reset(rows, S, v)
        assert store.xw.tobytes() == oracle.xw.tobytes()

    def test_reset_rejects_negative_scores_in_its_rows_only(self):
        S = sparse.csr_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.5, 0.0, 0.0]]))
        v = np.full(3, 1.0 / 3)
        PopulationStore(3).reset(np.array([0, 1]), S, v)  # row 2 sits out
        with pytest.raises(ValidationError, match=r"s\[2,0\]=-0.5"):
            PopulationStore(3).reset(np.arange(3), S, v)


def _layered_merge(xw: np.ndarray, dst: np.ndarray, outbox: np.ndarray, rows: np.ndarray) -> None:
    """The store's merge before its one-call form: one add per arrival rank."""
    order = np.argsort(dst, kind="stable")
    grouped = dst[order]
    starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    lengths = np.diff(np.append(starts, grouped.size))
    rank = np.empty(dst.size, dtype=np.intp)
    rank[order] = np.arange(grouped.size) - np.repeat(starts, lengths)
    for layer in range(int(lengths.max())):
        at = rank == layer
        xw[dst[at]] += outbox[rows[at]]


def _where_residual(cur: np.ndarray, aligned: np.ndarray) -> float:
    """The worst relative change before the one-pass form: masked by ``np.where``."""
    finite = np.isfinite(cur)
    with np.errstate(invalid="ignore"):
        num = np.abs(np.where(finite, cur - aligned, 0.0))
        den = np.maximum(np.abs(np.where(finite, aligned, 1.0)), 1e-12)
        return float((num / den).max())


def _where_converged(cur_ids, cur, prev_ids, prev, epsilon) -> bool:
    """``_batched_converged`` with the ``np.where`` residual."""
    if len(cur_ids) == 0:
        return True
    pos = {node: i for i, node in enumerate(prev_ids)}
    idx = [pos.get(node, -1) for node in cur_ids]
    if min(idx) < 0:
        return False
    aligned = prev[idx]
    finite = np.isfinite(cur)
    if (finite != np.isfinite(aligned)).any() or not finite.any(axis=1).all():
        return False
    return _where_residual(cur, aligned) <= epsilon


class TestKernelPins:
    """The whole-store kernels against the forms they replaced, bit for bit."""

    @staticmethod
    def _mass(rng, shape, zeros=0.4):
        return rng.random(shape) * (rng.random(shape) >= zeros)

    def test_estimates_match_three_passes(self):
        rng = np.random.default_rng(2)
        X, W = self._mass(rng, (9, 12)), self._mass(rng, (9, 12))
        X[0, :4], W[0, :4] = [0.5, 0.0, 0.0, 1e-300], [0.0, 0.0, 0.25, 0.0]
        X[1], W[1] = 0.0, 0.0  # a node that knows nothing
        X[2, 5], W[2, 5] = 3.0, np.inf  # finite over infinite w: zero
        got = _estimates_into(X, W, np.empty_like(X))
        want = three_pass_estimates(X, W, np.empty_like(X))
        assert got.tobytes() == want.tobytes()
        assert got[0, 0] == got[0, 3] == np.inf  # x > 0, w = 0
        assert np.isnan(got[0, 1]) and not np.signbit(got[0, 1])  # 0 / 0
        assert got[0, 2] == 0.0 and got[2, 5] == 0.0  # 0 / w and x / inf

    def test_estimate_rows_read_blocks_of_the_estimate_matrix(self):
        rng = np.random.default_rng(3)
        store = PopulationStore(7)
        store.x[:], store.w[:] = self._mass(rng, (7, 7)), self._mass(rng, (7, 7))
        rows = np.array([1, 4, 5, 6])
        want = three_pass_estimates(store.x[rows], store.w[rows], np.empty((4, 7)))
        live, frozen = store.estimate_rows(rows), store.frozen_estimate_rows(rows)
        for sel in (slice(0, 4), slice(1, 3), slice(2, 9), slice(0, 4, 2), [3, 0], [2]):
            assert live[sel].tobytes() == want[sel].tobytes()
            assert frozen[sel].tobytes() == want[sel].tobytes()
        # freezing carries over the slices a live view of the store read
        live = store.estimate_rows(rows)
        block = live[1:3]
        carried = store.frozen_estimate_rows(rows, live)
        assert carried[1:3] is block
        assert carried[0:4].tobytes() == want.tobytes()

    _CHANGES = {
        "halve-all": lambda s: s.halve(np.arange(6)),
        "halve-some": lambda s: s.halve([1, 4]),
        "halve-row": lambda s: s.halve_row(2),
        "merge": lambda s: s.merge(np.array([3, 0]), np.full((2, 12), 0.5), np.arange(2)),
        "merge-row": lambda s: s.merge_row(5, np.full(12, 0.25)),
        "rescale": lambda s: s.rescale(np.array([0, 4]), 3.0),
        "reset": lambda s: s.reset(
            np.arange(6), sparse.csr_matrix(np.ones((6, 6)) - np.eye(6)), np.full(6, 0.2)
        ),
    }

    @pytest.mark.parametrize("change", sorted(_CHANGES))
    def test_a_frozen_view_outlives_the_next_store_changes(self, change):
        # A whole-store halve moves the store to the spare buffer and any
        # other change copies first: the frozen view reads the state it
        # froze, twice over (the second freeze reuses the spare buffer),
        # and the store changes exactly as one with no view does.
        rng = np.random.default_rng(7)
        store, plain = PopulationStore(6), PopulationStore(6)
        store.xw[:] = plain.xw[:] = self._mass(rng, (6, 12))
        rows = np.array([0, 2, 3, 5])
        for _ in range(2):
            want = three_pass_estimates(store.x[rows], store.w[rows], np.empty((4, 6)))
            before = store.xw.copy()
            frozen = store.frozen_estimate_rows(rows)
            self._CHANGES[change](store)
            self._CHANGES[change](plain)
            assert store.xw.tobytes() == plain.xw.tobytes()
            assert store.x.base is store.xw and store.w.base is store.xw
            # halving leaves estimates as they were: compare the frozen mass too
            assert frozen._xw.tobytes() == before.tobytes()
            assert frozen[0:4].tobytes() == want.tobytes()
            assert frozen[[3, 1]].tobytes() == want[[3, 1]].tobytes()

    @pytest.mark.parametrize(
        "cur_ids, prev_ids",
        [((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (2, 0, 1)), ((4, 7), (7, 9, 4))],
    )
    def test_convergence_matches_the_where_residual(self, cur_ids, prev_ids):
        rng = np.random.default_rng(4)
        prev = 1.0 + rng.random((len(prev_ids), 6))
        pos = {node: i for i, node in enumerate(prev_ids)}
        aligned = prev[[pos[node] for node in cur_ids]]
        cur = aligned * (1.0 + 1e-3 * rng.standard_normal(aligned.shape))
        # a zero previous estimate divides by 1e-12
        cur[0, 1], prev[pos[cur_ids[0]], 1] = 1e-15, 0.0
        # inf against nan at one position, inf against inf at another
        cur[-1, 2], prev[pos[cur_ids[-1]], 2] = np.inf, np.nan
        cur[0, 3], prev[pos[cur_ids[0]], 3] = np.inf, np.inf
        worst = _where_residual(cur, prev[[pos[node] for node in cur_ids]])
        assert np.isfinite(worst) and worst > 0
        for eps in (worst, np.nextafter(worst, 0.0), np.nextafter(worst, 1.0), 1e-4, 1.0):
            assert _batched_converged(cur_ids, cur, prev_ids, prev, eps) == _where_converged(
                cur_ids, cur, prev_ids, prev, eps
            )
        assert _batched_converged(cur_ids, cur, prev_ids, prev, worst)
        assert not _batched_converged(cur_ids, cur, prev_ids, prev, np.nextafter(worst, 0.0))

    def test_convergence_blocks_a_row_with_no_finite_entry(self):
        cur = np.array([[1.0, 2.0], [np.inf, np.nan]])
        prev = np.array([[1.0, 2.0], [np.nan, np.inf]])
        assert not _where_converged((0, 1), cur, (0, 1), prev, 1.0)
        assert not _batched_converged((0, 1), cur, (0, 1), prev, 1.0)

    def test_blockwise_convergence_matches_one_pass(self):
        # Populations spanning several check blocks, with the failures
        # that decide the answer placed in any block: NaN/inf rows, a
        # changed finite pattern, a row with no finite entry, ids that
        # are permuted or missing from the previous round.
        rng = np.random.default_rng(6)
        rows_options = (1, _CHECK_ROWS - 1, _CHECK_ROWS, 2 * _CHECK_ROWS + 5, 100)
        answers = set()
        for trial in range(400):
            rows = int(rng.choice(rows_options))
            cols = int(rng.integers(1, 9))
            prev = 1.0 + rng.random((rows, cols))
            prev[rng.random((rows, cols)) < 0.2] = np.nan
            prev[rng.random((rows, cols)) < 0.05] = np.inf
            cur = prev * (1.0 + 10.0 ** rng.uniform(-6, -2) * rng.standard_normal((rows, cols)))
            ids = prev_ids = tuple(range(rows))
            kind = trial % 5
            at = int(rng.integers(rows))
            if kind == 1:  # a changed finite pattern
                cur[at, int(rng.integers(cols))] = rng.choice([np.nan, np.inf, 2.0])
            elif kind == 2:  # a row with no finite entry on both sides
                cur[at], prev[at] = np.nan, np.nan
            # thresholds around the worst change, so both answers occur
            worst = _where_residual(cur, prev)
            if not (np.isfinite(worst) and worst > 0):
                worst = 1e-3
            if kind == 3:  # the same nodes, previous round in another order
                perm = rng.permutation(rows)
                prev_ids, prev = tuple(int(i) for i in perm), prev[perm]
            elif kind == 4 and rows > 1:  # a node the previous round lacked
                prev_ids = ids[:at] + (rows,) + ids[at + 1 :]
            for eps in (1e-4, worst, np.nextafter(worst, 0.0), 1.0):
                got = _batched_converged(ids, cur, prev_ids, prev, eps)
                assert got == _where_converged(ids, cur, prev_ids, prev, eps)
                answers.add(got)
        assert answers == {True, False}

    def test_merge_matches_layered_adds(self):
        rng = np.random.default_rng(5)
        store = PopulationStore(6)
        store.xw[:] = self._mass(rng, (6, 12))
        ref = store.xw.copy()
        outbox = self._mass(rng, (6, 12), zeros=0.2)
        dst = np.array([3, 1, 3, 3, 0, 1])  # repeated destinations, one batch
        rows = np.array([5, 0, 2, 1, 4, 3])  # arrival order != send order
        store.merge(dst, outbox, rows)
        _layered_merge(ref, dst, outbox, rows)
        assert store.xw.tobytes() == ref.tobytes()
        store.merge(dst[:0], outbox, rows[:0])  # an empty stretch adds nothing
        assert store.xw.tobytes() == ref.tobytes()

    def test_merge_checks_what_the_kernel_does_not(self):
        store = PopulationStore(2)
        with pytest.raises(ValidationError):  # more arrivals than rows
            store.merge(np.zeros(3, dtype=np.int64), np.ones((3, 4)), np.arange(3))
        with pytest.raises(ValidationError):  # a destination beyond the store
            store.merge(np.array([2]), np.ones((1, 4)), np.arange(1))
        with pytest.raises(ValidationError):  # halves of the wrong width
            store.merge(np.array([1]), np.ones((1, 3)), np.arange(1))
        with pytest.raises(ValidationError):  # one row per destination
            store.merge(np.array([0, 1]), np.ones((2, 4)), np.arange(1))
        assert not store.xw.any()

    def test_halving_every_row_matches_halving_a_subset(self):
        rng = np.random.default_rng(6)
        whole, rowwise = PopulationStore(5), PopulationStore(5)
        whole.xw[:] = rowwise.xw[:] = self._mass(rng, (5, 10))
        out_all, known_all = whole.halve(np.arange(5))
        parts = [rowwise.halve([node]) for node in range(5)]
        assert out_all.tobytes() == np.vstack([out for out, _ in parts]).tobytes()
        assert known_all == sum(known for _, known in parts)
        assert whole.xw.tobytes() == rowwise.xw.tobytes()
        out_all[0, 0] = 9.0  # the outbox is fresh, not the store
        assert whole.xw[0, 0] != 9.0
