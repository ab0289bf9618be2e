"""Message-level gossip engine: fidelity and fault behavior."""

import numpy as np
import pytest

from repro.errors import InvariantViolation, ValidationError
from repro.gossip.message_engine import MessageGossipEngine
from repro.gossip.partnering import NeighborSampler
from repro.network.overlay import Overlay
from repro.network.topology import random_graph
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.trust.matrix import TrustMatrix


def build(n=24, loss=0.0, seed=0, epsilon=1e-5, **engine_kwargs):
    sim = Simulator()
    overlay = Overlay(random_graph(n, rng=seed), rng=seed + 1)
    transport = Transport(sim, latency=0.5, loss_rate=loss, rng=seed + 2)
    engine = MessageGossipEngine(
        sim,
        transport,
        overlay,
        epsilon=epsilon,
        round_interval=1.0,
        rng=seed + 3,
        **engine_kwargs,
    )
    return sim, overlay, transport, engine


def matrix_and_prior(n, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(raw, 0)
    for i in range(n):
        if raw[i].sum() == 0:
            raw[i, (i + 1) % n] = 1.0
    return TrustMatrix.from_dense_raw(raw).sparse(), np.full(n, 1.0 / n)


class TestLossless:
    def test_converges_to_exact_product(self):
        n = 24
        _sim, _ov, _tr, engine = build(n)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        assert res.converged
        assert res.gossip_error < 1e-3
        assert np.allclose(res.v_next, res.exact, rtol=1e-2, atol=1e-6)

    def test_no_mass_lost_without_faults(self):
        n = 16
        _sim, _ov, _tr, engine = build(n)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        assert res.mass_lost_fraction == pytest.approx(0.0, abs=1e-9)

    def test_all_nodes_agree(self):
        n = 16
        _sim, _ov, _tr, engine = build(n, epsilon=1e-7)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        finite = np.where(np.isfinite(res.node_estimates), res.node_estimates, np.nan)
        spread = np.nanmax(finite, axis=0) - np.nanmin(finite, axis=0)
        assert np.nanmax(spread) < 1e-4

    def test_message_accounting(self):
        n = 12
        _sim, _ov, tr, engine = build(n)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        # One message per live node per round.
        assert res.messages_sent == n * res.steps
        assert res.messages_dropped == 0


class TestFaults:
    def test_loss_costs_accuracy_but_not_validity(self):
        n = 24
        _sim, _ov, _tr, engine = build(n, loss=0.1)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        assert res.messages_dropped > 0
        assert res.mass_lost_fraction > 0
        assert np.all(np.isfinite(res.v_next))
        # Ratio robustness: error stays bounded even with 10% loss.
        assert res.gossip_error < 1.0

    def test_more_loss_more_mass_lost(self):
        n = 24
        losses = {}
        for rate in (0.05, 0.3):
            _sim, _ov, _tr, engine = build(n, loss=rate)
            S, v = matrix_and_prior(n)
            losses[rate] = engine.run_cycle(S, v).mass_lost_fraction
        assert losses[0.3] > losses[0.05]

    def test_departed_node_mass_vanishes_gracefully(self):
        n = 16
        sim, overlay, _tr, engine = build(n)
        S, v = matrix_and_prior(n)
        sim.call_in(2.5, overlay.leave, 3)
        res = engine.run_cycle(S, v)
        assert 3 not in res.live_nodes.tolist()
        assert np.all(np.isfinite(res.v_next))


class TestMassLossLaw:
    """Lost mass follows ``1 - (1 - q/2)^k`` under message loss ``q``.

    Every round each live node sends half its mass, and the transport
    loses each half with probability ``q``, so a round keeps a
    ``1 - q/2`` share of the mass in expectation and ``k`` rounds keep
    ``(1 - q/2)^k``.  Every node starts with the same mass (``w_i = 1``
    and ``sum_j x_ij = v_i = 1/n``), so one round's kept share has a
    standard deviation of about ``sqrt(q (1 - q) / (4n)) / (1 - q/2)``
    relative to its mean.  The bound is three of those deviations,
    compounded over the cycle's ``k`` rounds, per seed, and three over
    ``sqrt(seeds)`` for the seeds' mean.
    """

    N = 128
    SEEDS = range(5)

    @pytest.mark.parametrize("q", [0.05, 0.10, 0.20])
    def test_lost_fraction_matches_the_law(self, q):
        n = self.N
        gaps, sigmas = [], []
        for seed in self.SEEDS:
            _sim, _ov, _tr, engine = build(n, loss=q, seed=seed)
            S, v = matrix_and_prior(n, seed=seed)
            res = engine.run_cycle(S, v)
            kept = (1.0 - q / 2.0) ** res.steps
            sigma = kept * np.sqrt(res.steps * q * (1.0 - q) / (4.0 * n)) / (1.0 - q / 2.0)
            gap = res.mass_lost_fraction - (1.0 - kept)
            assert abs(gap) <= 3.0 * sigma, (seed, res.steps, gap, sigma)
            gaps.append(gap)
            sigmas.append(sigma)
        assert abs(np.mean(gaps)) <= 3.0 * np.mean(sigmas) / np.sqrt(len(gaps))


class _CorruptingEngine(MessageGossipEngine):
    """Corrupts the store after the second round with ``corrupt(store)``."""

    corrupt = staticmethod(lambda store: None)

    def _advance(self, windows):
        more = super()._advance(windows)
        if windows == 1:
            self.corrupt(self._store)
        return more


class TestArmedRowChecks:
    """The armed per-window check runs over the held rows and names node ids."""

    def _run(self, corrupt):
        n = 16
        sim = Simulator()
        overlay = Overlay(random_graph(n, rng=0), rng=1)
        transport = Transport(sim, latency=0.5, rng=2)
        engine = _CorruptingEngine(sim, transport, overlay, round_interval=1.0, rng=3)
        engine.corrupt = corrupt
        engine.arm_sanitizer()
        for node in (0, 1):  # held row k is node k + 2, so ids != positions
            overlay.leave(node)
        S, v = matrix_and_prior(n)
        return engine.run_cycle(S, v)

    def test_nan_x_names_its_node(self):
        def poison(store):
            store.x[9, 4] = np.nan

        with pytest.raises(InvariantViolation) as exc:
            self._run(poison)
        assert exc.value.invariant == "finite"
        assert exc.value.node == 9
        assert exc.value.step == 2

    def test_negative_w_names_its_node(self):
        def negate(store):
            store.w[5, 2] = -1.0

        with pytest.raises(InvariantViolation) as exc:
            self._run(negate)
        assert exc.value.invariant == "nonnegative-mass"
        assert exc.value.node == 5

    def test_rows_outside_the_cycle_are_not_checked(self):
        def poison_departed(store):
            store.x[0, 3] = np.nan
            store.w[1, 3] = -1.0

        res = self._run(poison_departed)
        assert res.converged


class TestConfiguration:
    def test_round_interval_must_exceed_latency(self):
        sim = Simulator()
        overlay = Overlay(random_graph(8, avg_degree=3.0, rng=0))
        transport = Transport(sim, latency=2.0)
        with pytest.raises(ValidationError):
            MessageGossipEngine(sim, transport, overlay, round_interval=1.0)

    def test_row_count_must_match(self):
        n = 8
        _sim, _ov, _tr, engine = build(n)
        with pytest.raises(ValidationError):
            engine.run_cycle(matrix_and_prior(n - 1)[0], np.full(n, 1.0 / n))

    def test_budget_returns_best_effort(self):
        # The one ending of a spent round budget: the cycle's estimates,
        # marked unconverged, never an error.
        n = 16
        _sim, _ov, _tr, engine = build(n, epsilon=1e-12, max_rounds=2)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        assert not res.converged
        assert res.steps == 2
        assert np.all(np.isfinite(res.v_next))

    def test_neighbors_only_mode_converges(self):
        n = 24
        _sim, _ov, _tr, engine = build(n, partnering=NeighborSampler())
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        assert res.converged
        assert res.gossip_error < 0.05


class TestBatchedConvergence:
    """Unit semantics of the one-pass population convergence test."""

    def _mats(self, *rows):
        return np.asarray(rows, dtype=np.float64)

    def test_empty_population_is_converged(self):
        from repro.gossip.message_engine import _batched_converged

        assert _batched_converged((), np.empty((0, 2)), (), np.empty((0, 2)), 1e-4)

    def test_within_epsilon_converges(self):
        from repro.gossip.message_engine import _batched_converged

        prev = self._mats([1.0, 2.0], [3.0, 4.0])
        cur = prev * (1.0 + 5e-5)
        assert _batched_converged((0, 1), cur, (0, 1), prev, 1e-4)
        assert not _batched_converged((0, 1), prev * 1.01, (0, 1), prev, 1e-4)

    def test_node_not_sampled_last_round_blocks(self):
        from repro.gossip.message_engine import _batched_converged

        prev = self._mats([1.0, 2.0])
        cur = self._mats([1.0, 2.0], [1.0, 2.0])
        assert not _batched_converged((0, 1), cur, (0,), prev, 1e-4)

    def test_prev_rows_realigned_by_id(self):
        from repro.gossip.message_engine import _batched_converged

        prev = self._mats([9.0, 9.0], [1.0, 2.0])
        cur = self._mats([1.0, 2.0])
        # node 7's previous row sits at index 1 of prev
        assert _batched_converged((7,), cur, (3, 7), prev, 1e-4)

    def test_finite_pattern_change_blocks(self):
        from repro.gossip.message_engine import _batched_converged

        prev = self._mats([1.0, np.nan])
        cur = self._mats([1.0, 1.0])  # newly heard-of peer: still spreading
        assert not _batched_converged((0,), cur, (0,), prev, 1e-4)

    def test_all_nan_row_blocks(self):
        from repro.gossip.message_engine import _batched_converged

        prev = self._mats([np.nan, np.nan])
        cur = self._mats([np.nan, np.nan])
        assert not _batched_converged((0,), cur, (0,), prev, 1e-4)

    def test_inf_estimates_compare_stable(self):
        """w == 0, x > 0 -> inf flows from estimates_array into the
        convergence test and the disagreement metric without blowing up."""
        from repro.gossip.message_engine import _batched_converged, _disagreement
        from tests.triplet_oracle import NodeVector

        tv = NodeVector.initial(0, {1: 1.0}, {0: 0.4})
        est = tv.estimates_array(3)
        assert est[1] == np.inf
        mat = est[None, :]
        # identical inf pattern on both sides: converged (change is 0)
        assert _batched_converged((0,), mat, (0,), mat.copy(), 1e-4)
        # inf columns are excluded from the finite spread
        assert _disagreement(np.vstack([mat, mat])) == pytest.approx(0.0)

    def test_disagreement_all_nonfinite_is_inf(self):
        from repro.gossip.message_engine import _disagreement

        assert _disagreement(np.full((2, 2), np.nan)) == np.inf
        assert _disagreement(np.empty((0, 3))) == np.inf

    def test_finite_mean_empty_column_is_silent_zero(self):
        import warnings

        from repro.gossip.message_engine import _finite_mean

        est = np.array([[0.2, np.nan, np.inf], [0.4, np.nan, 0.6]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = _finite_mean(est)
            empty = _finite_mean(np.empty((0, 3)))
        assert v.tolist() == [0.30000000000000004, 0.0, 0.6]
        assert empty.tolist() == [0.0, 0.0, 0.0]

    def test_finite_mean_bitwise_equals_nanmean(self):
        from repro.gossip.message_engine import _finite_mean

        rng = np.random.default_rng(7)
        est = rng.random((37, 11)) * 1e3
        est[rng.random(est.shape) < 0.3] = np.nan
        est[0, 3] = np.inf
        finite = np.where(np.isfinite(est), est, np.nan)
        assert np.array_equal(_finite_mean(est), np.nanmean(finite, axis=0))


class TestLifetime:
    """The transport holds the engine weakly: no reference cycle to collect."""

    @pytest.mark.parametrize("engine", ["message", "async"])
    def test_dropped_system_is_freed_without_gc(self, engine):
        import gc
        import weakref

        from repro.core.config import GossipTrustConfig
        from repro.core.gossiptrust import GossipTrust
        from repro.experiments.synthetic import synthetic_trust_matrix

        S = synthetic_trust_matrix(24, rng=1)
        config = GossipTrustConfig(
            n=24, engine=engine, engine_mode="full", compute_reference=False, seed=3
        )
        gc.collect()
        gc.disable()
        try:
            system = GossipTrust(S, config)
            system.run(raise_on_budget=False, compute_reference=False)
            engine = weakref.ref(system.engine)
            transport = weakref.ref(system.engine.transport)
            del system
            assert engine() is None
            assert transport() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("seed", range(5))
    def test_async_cycle_leaves_nothing_scheduled(self, seed):
        # Every wake of a Poisson window fires inside it and the cycle
        # drains its sends, so no heap entry can keep the engine alive.
        from repro.experiments.synthetic import synthetic_trust_matrix
        from repro.gossip.factory import make_engine

        engine = make_engine("async", n=24, rng=seed)
        engine.run_cycle(synthetic_trust_matrix(24, rng=1), np.full(24, 1.0 / 24))
        assert engine.sim.peek() == float("inf")

    def test_message_for_a_collected_engine_is_dropped(self):
        sim, overlay, transport, engine = build(8)
        S, v = matrix_and_prior(8)
        engine.run_cycle(S, v)
        delivered = transport.delivered
        transport.send(0, 1, None, kind="gossip")
        del engine
        sim.run()  # the weak dispatcher finds no engine: nothing happens
        assert transport.delivered == delivered + 1
