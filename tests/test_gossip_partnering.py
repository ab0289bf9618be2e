"""Partner strategies: name table, oracle parity, membership repair."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.config import GossipTrustConfig
from repro.errors import ConfigurationError, NetworkError, ValidationError
from repro.gossip.partnering import (
    BrahmsMembership,
    GlobalSampler,
    NeighborSampler,
    ViewHealth,
    _mix64,
    make_strategy,
    strategy_names,
)
from repro.network.overlay import Overlay
from repro.network.topology import random_graph
from repro.network.transport import Transport
from repro.sim.engine import Simulator


def build_substrate(n=24, loss=0.0, seed=0, latency=0.5):
    sim = Simulator()
    overlay = Overlay(random_graph(n, rng=seed), rng=seed + 1)
    transport = Transport(sim, latency=latency, loss_rate=loss, rng=seed + 2)
    return sim, overlay, transport


def bind_strategy(strategy, n=24, loss=0.0, seed=0):
    """Bind a strategy and route every transport message into it."""
    sim, overlay, transport = build_substrate(n=n, loss=loss, seed=seed)
    for node in range(n):
        transport.register(node, strategy.on_message)
    strategy.bind(sim, transport, overlay)
    return sim, overlay, transport


def run_maintenance(sim, strategy, until):
    strategy.start()
    sim.run(until=until)
    strategy.stop()


class TestRegistry:
    def test_all_three_registered(self):
        assert strategy_names() == ("brahms", "global", "neighbors")

    def test_make_strategy_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown partner strategy"):
            make_strategy("chord")

    def test_make_strategy_rejects_options(self):
        # Options are not filtered or forwarded: a strategy parameter is
        # set by constructing the class, and a stray keyword is an error.
        with pytest.raises(TypeError):
            make_strategy("brahms", rng=0, active_size=99)
        assert isinstance(make_strategy("brahms", rng=0), BrahmsMembership)

    def test_removed_hyparview_rejected_everywhere(self):
        listing = "registered: brahms, global, neighbors"
        with pytest.raises(ConfigurationError, match=listing):
            GossipTrustConfig(n=8, partner_strategy="hyparview")
        with pytest.raises(ConfigurationError, match=listing):
            make_strategy("hyparview")
        with pytest.raises(ConfigurationError, match=listing):
            cli_main(
                ["run", "resilience", "--quick", "--strategy", "hyparview",
                 "--set", "n=16"]
            )


class TestMix64:
    def test_stable_across_calls(self):
        assert _mix64(42, 7) == _mix64(42, 7)

    def test_seed_and_input_sensitivity(self):
        assert _mix64(42, 7) != _mix64(43, 7)
        assert _mix64(42, 7) != _mix64(42, 8)

    def test_fits_in_64_bits(self):
        for x in range(50):
            assert 0 <= _mix64(1, x) < (1 << 64)


class TestLifecycle:
    def test_partner_before_bind_raises(self):
        s = GlobalSampler(rng=0)
        with pytest.raises(NetworkError, match="not bound"):
            s.partner(0)

    def test_rebind_to_other_overlay_rejected(self):
        s = GlobalSampler(rng=0)
        bind_strategy(s, n=8)
        sim2, overlay2, transport2 = build_substrate(n=8, seed=9)
        with pytest.raises(ValidationError, match="already bound"):
            s.bind(sim2, transport2, overlay2)

    def test_rebind_same_overlay_is_idempotent(self):
        s = GlobalSampler(rng=0)
        sim, overlay, transport = bind_strategy(s, n=8)
        s.bind(sim, transport, overlay)  # no raise


class TestGlobalSampler:
    def test_bit_identical_to_overlay_oracle(self):
        """The default strategy must replay Overlay.random_partner exactly."""
        n, seed = 20, 3
        direct = Overlay(random_graph(n, rng=seed), rng=seed + 1)
        s = GlobalSampler(rng=123)
        _, via_strategy, _ = bind_strategy(s, n=n, seed=seed)
        picks_direct = [direct.random_partner(i) for i in range(n)]
        picks_strategy = [s.partner(i) for i in range(n)]
        assert picks_direct == picks_strategy

    def test_view_is_every_other_live_node(self):
        s = GlobalSampler(rng=0)
        _, overlay, _ = bind_strategy(s, n=10)
        overlay.leave(3)
        assert 3 not in s.view(0)
        assert len(s.view(0)) == 8

    def test_closed_form_health(self):
        s = GlobalSampler(rng=0)
        _, overlay, _ = bind_strategy(s, n=10)
        h = s.health()
        assert isinstance(h, ViewHealth)
        assert h.live_nodes == 10
        assert h.mean_live_degree == 9.0
        assert h.isolated_live_nodes == 0
        assert h.components == 1


class TestNeighborSampler:
    def test_partner_is_a_live_neighbor(self):
        s = NeighborSampler(rng=0)
        _, overlay, _ = bind_strategy(s, n=16)
        for node in range(16):
            p = s.partner(node)
            if p is not None:
                assert p in overlay.neighbors(node, live_only=True)

    def test_health_over_topology_view(self):
        s = NeighborSampler(rng=0)
        bind_strategy(s, n=16)
        h = s.health()
        assert h.live_nodes == 16
        assert h.mean_live_degree > 0


class TestBrahms:
    def test_initial_views_populated(self):
        s = BrahmsMembership(rng=0)
        bind_strategy(s, n=24)
        for node in range(24):
            assert s.views[node]
            assert node not in s.views[node]

    def test_parameter_validation(self):
        b = BrahmsMembership
        assert b.view_size >= 2 and b.sampler_slots >= 1 and b.interval > 0
        # the push and pull shares leave the history samplers a share
        assert 0.0 < b.alpha and 0.0 < b.beta and b.alpha + b.beta < 1.0

    def test_partner_drawn_from_view(self):
        s = BrahmsMembership(rng=0)
        bind_strategy(s, n=24)
        for node in range(24):
            assert s.partner(node) in s.views[node]

    def test_samplers_hold_observed_ids(self):
        s = BrahmsMembership(rng=0)
        bind_strategy(s, n=24)
        ids = s._sampler_ids(0)
        assert ids
        assert all(0 <= i < 24 for i in ids)

    def test_crash_burst_is_detected_and_repaired(self, monkeypatch):
        """Probes must evict the dead and no live node may end isolated."""
        monkeypatch.setattr(BrahmsMembership, "interval", 2.0)
        s = BrahmsMembership(rng=0)
        sim, overlay, _ = bind_strategy(s, n=32, loss=0.05)
        run_maintenance(sim, s, until=10.0)
        s.start()
        for victim in range(8):
            overlay.leave(victim)
        sim.run(until=150.0)
        s.stop()
        assert s.evictions > 0
        h = s.health()
        assert h.live_nodes == 24
        assert h.isolated_live_nodes == 0
        assert h.components == 1

    def test_node_joined_flushes_and_bootstraps(self, monkeypatch):
        monkeypatch.setattr(BrahmsMembership, "interval", 2.0)
        s = BrahmsMembership(rng=0)
        sim, overlay, _ = bind_strategy(s, n=24)
        overlay.leave(5)
        s.start()
        sim.run(until=20.0)
        overlay.join(5)
        s.node_joined(5)
        assert s.views[5], "bootstrap must refill the view immediately"
        sim.run(until=60.0)
        s.stop()
        assert s.health().isolated_live_nodes == 0

    def test_view_recomputation_consumes_push_pull(self, monkeypatch):
        monkeypatch.setattr(BrahmsMembership, "interval", 2.0)
        s = BrahmsMembership(rng=0)
        sim, overlay, _ = bind_strategy(s, n=24)
        run_maintenance(sim, s, until=30.0)
        assert s.maintenance_messages > 0
        assert s.promotions > 0  # views were recomputed from buffers

    def test_retry_stats_surface_reliable_counters(self, monkeypatch):
        monkeypatch.setattr(BrahmsMembership, "interval", 2.0)
        s = BrahmsMembership(rng=0)
        sim, overlay, _ = bind_strategy(s, n=16, loss=0.3)
        run_maintenance(sim, s, until=80.0)
        stats = s.retry_stats()
        assert stats["sent"] > 0
        assert stats["retries"] > 0  # 30% loss must trigger some resends


class TestHealthComponents:
    def test_split_views_report_two_components(self):
        s = BrahmsMembership(rng=0)
        bind_strategy(s, n=8)
        # Force two cliques at the membership layer.
        for node in range(8):
            group = [0, 1, 2, 3] if node < 4 else [4, 5, 6, 7]
            s.views[node] = [p for p in group if p != node]
        h = s.health()
        assert h.components == 2
        assert h.isolated_live_nodes == 0

    def test_isolated_node_counted(self):
        s = BrahmsMembership(rng=0)
        bind_strategy(s, n=8)
        s.views[0] = []
        # Drop node 0 from everyone else's views too.
        for node in range(1, 8):
            s.views[node] = [p for p in s.views[node] if p != 0]
        h = s.health()
        assert h.isolated_live_nodes == 1
        assert h.components == 2
