"""Churn model: departures, rejoins, floors, callbacks."""

import pytest

from repro.errors import ValidationError
from repro.network.churn import ChurnModel
from repro.network.overlay import Overlay
from repro.network.topology import random_graph
from repro.sim.engine import Simulator


def make(n=30, **kwargs):
    sim = Simulator()
    overlay = Overlay(random_graph(n, rng=0), rng=1)
    churn = ChurnModel(sim, overlay, rng=2, **kwargs)
    return sim, overlay, churn


class TestDynamics:
    def test_departures_happen(self):
        sim, overlay, churn = make(mean_session=10.0, mean_offline=None)
        churn.start()
        sim.run(until=100.0)
        assert churn.departures > 0
        assert overlay.alive_count < 30

    def test_rejoins_happen(self):
        sim, overlay, churn = make(mean_session=5.0, mean_offline=5.0)
        churn.start()
        sim.run(until=200.0)
        assert churn.rejoins > 0

    def test_population_floor_respected(self):
        sim, overlay, churn = make(mean_session=1.0, mean_offline=None, min_alive=25)
        churn.start()
        sim.run(until=500.0)
        assert overlay.alive_count >= 25

    def test_steady_state_availability(self):
        # With mean session S and offline O, availability ~ S/(S+O).
        sim, overlay, churn = make(mean_session=30.0, mean_offline=10.0, min_alive=0)
        churn.start()
        sim.run(until=2000.0)
        assert overlay.alive_count / 30 == pytest.approx(0.75, abs=0.25)

    def test_start_is_idempotent(self):
        sim, _overlay, churn = make()
        churn.start()
        churn.start()
        before = sim.peek()
        assert before < float("inf")


class TestValidation:
    def test_rejects_nonpositive_session(self):
        sim = Simulator()
        overlay = Overlay(random_graph(10, rng=0))
        with pytest.raises(ValidationError):
            ChurnModel(sim, overlay, mean_session=0.0)

    def test_rejects_nonpositive_offline(self):
        sim = Simulator()
        overlay = Overlay(random_graph(10, rng=0))
        with pytest.raises(ValidationError):
            ChurnModel(sim, overlay, mean_offline=-1.0)


class TestRejoinUnderArmedSanitizer:
    """ChurnModel rejoin and Overlay.join must survive a sanitized cycle.

    A rejoin mid-cycle re-inserts a node while gossip mass is moving;
    the engine's bounded invariant (mass never created) must hold and
    the converged estimates must stay finite and non-negative.
    """

    def _run_sanitized_cycle(self, strategy):
        import numpy as np

        from repro.analysis.sanitizer import set_sanitize_enabled
        from repro.core.config import GossipTrustConfig
        from repro.experiments.synthetic import synthetic_trust_matrix
        from repro.gossip.factory import make_engine
        from repro.network.transport import Transport
        from repro.utils.rng import RngStreams

        n = 32
        streams = RngStreams(7)
        S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
        sim = Simulator()
        overlay = Overlay(random_graph(n, rng=0), rng=streams.get("overlay"))
        transport = Transport(sim, latency=0.5, rng=streams.get("net"))
        config = GossipTrustConfig(
            n=n, partner_strategy=strategy, mass_restore_budget=0.25
        )
        eng = make_engine(
            "message",
            config,
            rng=streams,
            sim=sim,
            transport=transport,
            overlay=overlay,
            round_interval=1.0,
            max_rounds=120,
        )
        churn = ChurnModel(
            sim, overlay, mean_session=40.0, mean_offline=10.0,
            min_alive=8, rng=streams.get("churn"),
        )
        # Tell the partner strategy about every rejoin, as a fault plan's
        # on_rejoin hook does.
        rejoin = overlay.join

        def rejoin_and_notify(node):
            rejoin(node)
            eng.partnering.node_joined(node)

        overlay.join = rejoin_and_notify
        churn.start()
        set_sanitize_enabled(True)
        try:
            res = eng.run_cycle(S, np.full(n, 1.0 / n))
        finally:
            set_sanitize_enabled(None)
        return churn, res

    @pytest.mark.parametrize("strategy", ["global", "neighbors", "brahms"])
    def test_rejoins_mid_cycle_keep_estimates_finite(self, strategy):
        import numpy as np

        churn, res = self._run_sanitized_cycle(strategy)
        assert churn.departures > 0  # the cycle really saw churn
        assert np.all(np.isfinite(res.v_next))
        assert np.all(res.v_next >= 0.0)
        assert res.gossip_error < 1.0
