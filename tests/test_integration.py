"""Cross-module integration: engines agree, system matches oracle, e2e runs."""

import numpy as np

from repro.baselines.centralized import CentralizedEigenvector
from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.message_engine import MessageGossipEngine
from repro.metrics.errors import kendall_tau, rank_overlap
from repro.network.faultplan import CrashBurst, FaultPlan
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like, random_graph
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.utils.rng import RngStreams


class TestEngineAgreement:
    """The two gossip engines implement one protocol; they must agree."""

    def test_vectorized_and_message_engines_agree(self):
        n = 20
        streams = RngStreams(11)
        S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
        v = np.full(n, 1.0 / n)

        vec_engine = SynchronousGossipEngine(
            n, epsilon=1e-7, mode="full", rng=streams.get("vec")
        )
        vec_res = vec_engine.run_cycle(S, v)

        sim = Simulator()
        overlay = Overlay(random_graph(n, rng=streams.get("topo")), rng=streams.get("ov"))
        transport = Transport(sim, latency=0.4, rng=streams.get("net"))
        msg_engine = MessageGossipEngine(
            sim, transport, overlay, epsilon=1e-7, round_interval=1.0,
            rng=streams.get("msg"),
        )
        msg_res = msg_engine.run_cycle(S, v)  # engines take the matrix natively

        # Both approximate the same exact product.
        assert np.allclose(vec_res.exact, msg_res.exact, atol=1e-12)
        assert np.allclose(vec_res.v_next, msg_res.v_next, rtol=5e-2, atol=1e-5)


class TestSystemVsOracle:
    def test_gossiptrust_ranking_matches_eigenvector(self):
        n = 100
        streams = RngStreams(3)
        S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
        cfg = GossipTrustConfig(n=n, alpha=0.0, seed=3)
        result = GossipTrust(S, cfg, rng=streams.get("sys")).run()
        oracle = CentralizedEigenvector(S).compute()
        assert kendall_tau(oracle, result.vector) > 0.95
        assert rank_overlap(oracle, result.vector, 10) >= 0.9

    def test_paper_cycle_counts_ballpark(self):
        # Table 3 at (1e-4, 1e-3): paper reports 15 cycles / 28 steps.
        # Same order of magnitude expected on our synthetic matrices.
        n = 300
        streams = RngStreams(5)
        S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
        cfg = GossipTrustConfig(
            n=n, alpha=0.15, epsilon=1e-4, delta=1e-3, engine_mode="probe", seed=5
        )
        result = GossipTrust(S, cfg, rng=streams.get("sys")).run()
        assert 3 <= result.cycles <= 40
        mean_steps = result.total_gossip_steps / result.cycles
        assert 10 <= mean_steps <= 120


class TestChurnIntegration:
    def test_gossip_cycle_survives_active_churn(self):
        n = 40
        streams = RngStreams(7)
        S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
        sim = Simulator()
        overlay = Overlay(
            gnutella_like(n, rng=streams.get("topo")), rng=streams.get("ov")
        )
        transport = Transport(sim, latency=0.4, rng=streams.get("net"))
        engine = MessageGossipEngine(
            sim, transport, overlay, epsilon=1e-4, round_interval=1.0,
            max_rounds=200, rng=streams.get("msg"),
        )
        # A tenth of the live peers crash every 7 time units, mid-round,
        # and each rejoins 15 time units later.
        churn = FaultPlan(
            [CrashBurst(at=t + 0.5, fraction=0.1, rejoin_after=15.0) for t in range(3, 60, 7)],
            rng=streams.get("churn"),
        )
        churn.schedule(sim, transport, overlay, on_rejoin=engine.partnering.node_joined)
        res = engine.run_cycle(S, np.full(n, 1.0 / n))
        assert churn.crashes > 0 and churn.rejoins > 0
        assert np.all(np.isfinite(res.v_next))
        # Gossip still lands in the neighborhood of the exact product.
        live = res.live_nodes
        err = np.abs(res.v_next[live] - res.exact[live]).sum()
        assert err < 0.5


class TestStorageIntegration:
    def test_bloom_store_roundtrip_of_real_reputation(self):
        from repro.storage.reputation_store import BloomReputationStore

        n = 150
        streams = RngStreams(9)
        S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
        v = CentralizedEigenvector(S).compute()
        store = BloomReputationStore(bracket_bits=8)
        store.build(v)
        approx = store.lookup_vector(n)
        assert kendall_tau(v, approx) > 0.8
