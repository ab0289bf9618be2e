"""Asynchronous (Poisson-clock) gossip engine."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gossip.message_engine import AsyncMessageGossipEngine
from repro.network.overlay import Overlay
from repro.network.topology import random_graph
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.trust.matrix import TrustMatrix


def build(n=24, loss=0.0, seed=0, **kwargs):
    sim = Simulator()
    overlay = Overlay(random_graph(n, rng=seed), rng=seed + 1)
    transport = Transport(sim, latency=0.3, loss_rate=loss, rng=seed + 2)
    engine = AsyncMessageGossipEngine(
        sim, transport, overlay, rng=seed + 3, **kwargs
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


class TestAsyncConvergence:
    def test_converges_to_exact_product(self):
        n = 24
        _sim, _ov, _tr, engine = build(n, epsilon=1e-6)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        assert res.converged
        assert res.gossip_error < 1e-3
        assert np.allclose(res.v_next, res.exact, rtol=1e-2, atol=1e-6)

    def test_equivalent_rounds_same_order_as_sync(self):
        """Per-send cost of async gossip matches the synchronous analysis."""
        from repro.gossip.message_engine import MessageGossipEngine

        n = 24
        S, v = matrix_and_prior(n)
        _sim, _ov, _tr, async_engine = build(n, epsilon=1e-6)
        async_rounds = async_engine.run_cycle(S, v).steps

        sim = Simulator()
        overlay = Overlay(random_graph(n, rng=0), rng=1)
        transport = Transport(sim, latency=0.3, rng=2)
        sync_engine = MessageGossipEngine(
            sim, transport, overlay, epsilon=1e-6, round_interval=1.0, rng=3
        )
        sync_rounds = sync_engine.run_cycle(S, v).steps
        assert async_rounds < 4 * sync_rounds  # same order, coarser detector

    def test_mass_conserved_without_faults(self):
        n = 16
        _sim, _ov, _tr, engine = build(n)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        assert res.mass_lost_fraction == pytest.approx(0.0, abs=1e-9)

    def test_survives_message_loss(self):
        n = 24
        _sim, _ov, _tr, engine = build(n, loss=0.1)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        assert np.all(np.isfinite(res.v_next))
        assert res.messages_dropped > 0

    def test_time_budget_respected(self, monkeypatch):
        n = 16
        monkeypatch.setattr(AsyncMessageGossipEngine, "max_time", 30.0)
        sim, _ov, _tr, engine = build(n, epsilon=1e-15)
        S, v = matrix_and_prior(n)
        res = engine.run_cycle(S, v)
        assert not res.converged
        assert sim.now <= 31.0


class TestAsyncValidation:
    def test_row_count_checked(self):
        n = 8
        _sim, _ov, _tr, engine = build(n)
        with pytest.raises(ValidationError):
            engine.run_cycle(matrix_and_prior(n - 1)[0], np.full(n, 1.0 / n))

    def test_constructor_validation(self):
        sim = Simulator()
        overlay = Overlay(random_graph(8, avg_degree=3.0, rng=0))
        transport = Transport(sim, latency=0.3)
        with pytest.raises(ValidationError):
            AsyncMessageGossipEngine(sim, transport, overlay, epsilon=0.0)
