"""The fault-tolerance experiment's axes, as fault-plan events."""

import numpy as np
import pytest

from repro.core.config import GossipTrustConfig
from repro.errors import ExperimentError
from repro.experiments import fault_tolerance as ft
from repro.experiments.synthetic import des_substrate
from repro.gossip.factory import make_engine
from repro.gossip.message_engine import AsyncMessageGossipEngine
from repro.metrics.reporting import percentile
from repro.network.faultplan import CrashBurst, FaultPlan, LinkFlap

#: the longer of the two clocks' cycle budgets, in simulated time
LONGEST_BUDGET = max(ft._MAX_ROUNDS * ft._ROUND_INTERVAL, AsyncMessageGossipEngine.max_time)


def scheduled(fault, level, n=64, seed=0):
    """A substrate with the level's plan scheduled as ``_fault_point`` does."""
    streams, _S, sim, overlay, transport = des_substrate(n, seed, loss_rate=0.0)
    edges = list(overlay.live_subgraph().edges())
    plan = FaultPlan(ft._fault_events(fault, level, len(edges)), rng=streams.get("failures"))
    plan.schedule(sim, transport, overlay)
    sim.run(until=sim.now)
    return plan, sim, edges, overlay, transport


class TestLinkAxis:
    def test_one_flap_cuts_int_f_edges_at_t0_for_longer_than_any_budget(self):
        (flap,) = ft._fault_events("link", 0.2, 311)
        assert isinstance(flap, LinkFlap)
        assert (flap.start, flap.count, flap.cycles) == (0.0, 62, 1)
        # a flap is down for half its period
        assert flap.period / 2.0 > LONGEST_BUDGET

    @pytest.mark.parametrize("level", [0.1, 0.2])
    def test_cut_is_in_force_before_round_one_and_never_heals(self, level):
        plan, sim, edges, _overlay, transport = scheduled("link", level)
        k = int(len(edges) * level)
        assert k > 0 and sim.now == 0.0
        down = {e for e in edges if transport.links.is_down(*e)}
        assert len(down) == transport.links.down_count == k
        assert plan.flaps == k
        sim.run(until=LONGEST_BUDGET)
        assert {e for e in edges if transport.links.is_down(*e)} == down

    def test_no_cut_no_events(self):
        assert ft._fault_events("link", 0.0, 311) == []
        assert ft._fault_events("link", 0.001, 311) == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cells_equal_a_direct_cut_before_the_engine(self, seed):
        # The cut as it was once made by hand: the same edges drawn from
        # the "failures" stream, failed before the engine is built.
        n, level = 48, 0.2
        streams, S, sim, overlay, transport = des_substrate(n, seed, loss_rate=0.0)
        edges = list(overlay.live_subgraph().edges())
        gen = streams.get("failures")
        for idx in gen.choice(len(edges), size=int(len(edges) * level), replace=False):
            transport.links.fail(*edges[int(idx)])
        eng = make_engine(
            "message",
            GossipTrustConfig(n=n, epsilon=1e-4),
            rng=streams,
            sim=sim,
            transport=transport,
            overlay=overlay,
            round_interval=ft._ROUND_INTERVAL,
            max_rounds=ft._MAX_ROUNDS,
        )
        res = eng.run_cycle(S, np.full(n, 1.0 / n))
        (err, steps, lost), _records = ft._fault_point(
            seed=seed, n=n, fault="link", level=level, engine="message"
        )
        assert (err, steps, lost) == (res.gossip_error, float(res.steps), res.mass_lost_fraction)


class TestChurnAxis:
    def test_d_one_node_crashes_one_round_apart_from_round_two(self):
        events = ft._fault_events("churn", 3, 311)
        assert all(isinstance(ev, CrashBurst) and ev.count == 1 for ev in events)
        assert [ev.at for ev in events] == [ft._ROUND_INTERVAL * r for r in (2, 3, 4)]

    def test_one_departure_per_round_from_round_two(self):
        d = 8
        plan, sim, _edges, overlay, _transport = scheduled("churn", d, n=64)
        assert overlay.alive_count == 64
        sim.run(until=2 * ft._ROUND_INTERVAL - 0.5)
        assert overlay.alive_count == 64
        for i in range(d):
            sim.run(until=(2 + i) * ft._ROUND_INTERVAL)
            assert overlay.alive_count == 64 - (i + 1)
        sim.run(until=LONGEST_BUDGET)
        assert overlay.alive_count == 64 - d
        assert plan.crashes == d and plan.rejoins == 0

    def test_departures_stop_at_the_two_node_floor(self):
        plan, sim, _edges, overlay, _transport = scheduled("churn", 5, n=4)
        sim.run(until=LONGEST_BUDGET)
        assert plan.crashes == 2
        assert overlay.alive_count == 2

    def test_no_departures_no_events(self):
        assert ft._fault_events("churn", 0, 311) == []


class TestLossAxis:
    def test_loss_is_the_transport_rate_not_an_event(self):
        assert ft._fault_events("loss", 0.3, 311) == []


class TestRunFaultTolerance:
    def test_cells_report_median_and_quartiles_over_seeds(self):
        res = ft.run_fault_tolerance(
            n=32,
            loss_rates=(0.0, 0.2),
            link_failure_fractions=(0.2,),
            departure_counts=(4,),
            repeats=3,
        )
        for key in ("loss/0", "loss/0.2", "link/0.2", "churn/4"):
            seeds = res.data[f"{key}/seeds"]
            assert len(seeds) == 3
            assert res.data[key] == percentile(seeds, 50.0)
            assert res.data[f"{key}/q1"] <= res.data[key] <= res.data[f"{key}/q3"]
        assert res.data["loss/0"] < res.data["loss/0.2"]

    def test_fault_free_cycle_runs_once_for_every_axis(self, monkeypatch):
        calls = []

        def point(**kwargs):
            calls.append((kwargs["fault"], kwargs["level"], kwargs["seed"]))
            return (0.01 * kwargs["seed"], 10.0, 0.0), []

        monkeypatch.setattr(ft, "_fault_point", point)
        res = ft.run_fault_tolerance(
            n=16,
            loss_rates=(0.0,),
            link_failure_fractions=(0.0, 0.1),
            departure_counts=(0,),
            repeats=2,
        )
        assert calls == [("loss", 0.0, 0), ("loss", 0.0, 1), ("link", 0.1, 0), ("link", 0.1, 1)]
        for key in ("loss/0", "link/0", "churn/0"):
            assert res.data[f"{key}/seeds"] == [0.0, 0.01]

    def test_unknown_axis_raises(self):
        with pytest.raises(ExperimentError, match="unknown fault axis"):
            ft._fault_events("meteor", 1.0, 311)
        with pytest.raises(ExperimentError, match="unknown fault axis"):
            ft._fault_point(seed=0, n=16, fault="meteor", level=1.0, engine="message")
