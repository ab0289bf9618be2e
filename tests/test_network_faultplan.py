"""Scripted fault plans: validation, firing, counters, determinism."""

import numpy as np
import pytest

from repro.analysis.sanitizer import set_sanitize_enabled
from repro.core.config import GossipTrustConfig
from repro.errors import ValidationError
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.factory import make_engine
from repro.network import faultplan
from repro.network.faultplan import (
    CrashBurst,
    FaultPlan,
    LinkFlap,
    LossRamp,
    Partition,
    named_plan,
    plan_names,
)
from repro.network.overlay import Overlay
from repro.network.topology import random_graph
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.utils.rng import RngStreams


def build(n=20, seed=0, loss=0.0):
    sim = Simulator()
    overlay = Overlay(random_graph(n, rng=seed), rng=seed + 1)
    transport = Transport(sim, latency=0.5, loss_rate=loss, rng=seed + 2)
    return sim, overlay, transport


class TestValidation:
    def test_crash_fraction_out_of_range(self):
        with pytest.raises(ValidationError):
            FaultPlan([CrashBurst(at=1.0, fraction=1.5)])

    def test_crash_negative_count(self):
        with pytest.raises(ValidationError):
            FaultPlan([CrashBurst(at=1.0, count=-1)])

    def test_partition_must_heal_after_forming(self):
        with pytest.raises(ValidationError, match="heal_at"):
            FaultPlan([Partition(at=5.0, heal_at=5.0)])

    def test_partition_needs_two_groups(self):
        with pytest.raises(ValidationError, match="groups"):
            FaultPlan([Partition(at=1.0, heal_at=2.0, groups=1)])

    def test_loss_ramp_peak_is_a_probability(self):
        with pytest.raises(ValidationError):
            FaultPlan([LossRamp(start=0.0, end=1.0, peak=1.5)])

    def test_loss_ramp_end_after_start(self):
        with pytest.raises(ValidationError, match="end"):
            FaultPlan([LossRamp(start=2.0, end=1.0, peak=0.1)])

    def test_flap_parameters(self):
        with pytest.raises(ValidationError, match="count"):
            FaultPlan([LinkFlap(start=0.0, count=0, period=1.0)])
        with pytest.raises(ValidationError, match="period"):
            FaultPlan([LinkFlap(start=0.0, count=1, period=0.0)])

    def test_min_alive_floor(self):
        sim, overlay, transport = build(n=20)
        FaultPlan([CrashBurst(at=1.0, count=100)], rng=0).schedule(sim, transport, overlay)
        sim.run(until=2.0)
        assert overlay.alive_count == faultplan._MIN_ALIVE == 2

    def test_schedule_only_once(self):
        sim, overlay, transport = build()
        plan = FaultPlan([CrashBurst(at=1.0, count=1)], rng=0)
        plan.schedule(sim, transport, overlay)
        with pytest.raises(ValidationError, match="already scheduled"):
            plan.schedule(sim, transport, overlay)


class TestCrashBurst:
    def test_crash_and_rejoin_round_trip(self):
        sim, overlay, transport = build(n=20)
        rejoined = []
        plan = FaultPlan(
            [CrashBurst(at=1.0, count=5, rejoin_after=2.0)], rng=0
        )
        plan.schedule(sim, transport, overlay, on_rejoin=rejoined.append)
        sim.run(until=2.0)
        assert overlay.alive_count == 15
        crashed = [v for v in range(20) if not overlay.is_alive(v)]
        assert len(crashed) == 5
        sim.run(until=10.0)
        assert overlay.alive_count == 20
        assert sorted(rejoined) == sorted(crashed)
        assert plan.summary()["crashes"] == 5
        assert plan.summary()["rejoins"] == 5

    def test_fraction_based_sizing(self):
        sim, overlay, transport = build(n=20)
        plan = FaultPlan([CrashBurst(at=1.0, fraction=0.25)], rng=0)
        plan.schedule(sim, transport, overlay)
        sim.run(until=2.0)
        assert overlay.alive_count == 15

    def test_min_alive_caps_the_burst(self, monkeypatch):
        monkeypatch.setattr(faultplan, "_MIN_ALIVE", 4)
        sim, overlay, transport = build(n=8)
        plan = FaultPlan([CrashBurst(at=1.0, count=100)], rng=0)
        plan.schedule(sim, transport, overlay)
        sim.run(until=2.0)
        assert overlay.alive_count == 4

    def test_crash_log_records_time_and_kind(self):
        sim, overlay, transport = build()
        plan = FaultPlan([CrashBurst(at=3.0, count=2)], rng=0)
        plan.schedule(sim, transport, overlay)
        sim.run(until=5.0)
        assert len(plan.log) == 1
        t, kind, _detail = plan.log[0]
        assert t == 3.0 and kind == "crash"


class TestPartition:
    def test_partition_forms_and_heals(self):
        sim, overlay, transport = build(n=20)
        plan = FaultPlan([Partition(at=1.0, heal_at=5.0, groups=2)], rng=0)
        plan.schedule(sim, transport, overlay)
        sim.run(until=2.0)
        assert transport.links.partitioned
        # Some cross-group pair must be down.
        downs = sum(
            1 for u in range(20) for v in range(u + 1, 20)
            if transport.links.is_down(u, v)
        )
        assert downs > 0
        sim.run(until=6.0)
        assert not transport.links.partitioned
        assert plan.partitions == 1 and plan.heals == 1

    def test_cross_partition_sends_drop(self):
        sim, overlay, transport = build(n=10)
        transport.register(0, lambda m: None)
        plan = FaultPlan([Partition(at=1.0, heal_at=50.0, groups=2)], rng=0)
        plan.schedule(sim, transport, overlay)
        sim.run(until=2.0)
        before = transport.dropped_link
        for u in range(10):
            for v in range(10):
                if u != v:
                    transport.send(u, v, None)
        assert transport.dropped_link > before


class TestLossRamp:
    def test_staircase_peaks_then_restores(self):
        sim, overlay, transport = build(loss=0.05)
        plan = FaultPlan(
            [LossRamp(start=1.0, end=9.0, peak=0.45, steps=4)], rng=0
        )
        plan.schedule(sim, transport, overlay)
        sim.run(until=5.0)  # ramp midpoint: full peak
        assert transport.loss_rate == pytest.approx(0.45)
        sim.run(until=10.0)
        assert transport.loss_rate == pytest.approx(0.05)
        assert plan.loss_changes == 8


class TestLinkFlap:
    def test_links_flap_down_then_heal(self):
        sim, overlay, transport = build(n=20)
        plan = FaultPlan(
            [LinkFlap(start=1.0, count=3, period=2.0, cycles=2)], rng=0
        )
        plan.schedule(sim, transport, overlay)
        sim.run(until=1.5)  # mid first down-phase
        assert transport.links.down_count == 3
        sim.run(until=20.0)
        assert transport.links.down_count == 0
        assert plan.flaps == 6  # 3 links x 2 cycles


class TestNamedPlans:
    def test_names_are_sorted_and_complete(self):
        assert plan_names() == ("combo", "crash", "loss_ramp", "partition")

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError, match="unknown fault plan"):
            named_plan("meteor", horizon=10.0)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValidationError, match="horizon"):
            named_plan("crash", horizon=0.0)

    @pytest.mark.parametrize("name", ["combo", "crash", "loss_ramp", "partition"])
    def test_every_named_plan_schedules_and_runs(self, name):
        sim, overlay, transport = build(n=20)
        transport.register(0, lambda m: None)
        plan = named_plan(name, horizon=20.0, rng=0)
        plan.schedule(sim, transport, overlay)
        sim.run(until=30.0)
        assert sum(plan.summary().values()) > 0
        assert not transport.links.partitioned  # everything healed


class TestDeterminism:
    def test_same_seed_same_log(self):
        logs = []
        for _ in range(2):
            sim, overlay, transport = build(n=20, seed=5)
            plan = named_plan("combo", horizon=20.0, rng=99)
            plan.schedule(sim, transport, overlay)
            sim.run(until=30.0)
            logs.append((tuple(plan.log), tuple(sorted(plan.summary().items()))))
        assert logs[0] == logs[1]

    def test_different_seed_different_victims(self):
        picks = []
        for rng_seed in (1, 2):
            sim, overlay, transport = build(n=40, seed=5)
            plan = FaultPlan([CrashBurst(at=1.0, count=8)], rng=rng_seed)
            plan.schedule(sim, transport, overlay)
            sim.run(until=2.0)
            picks.append(frozenset(
                v for v in range(40) if not overlay.is_alive(v)
            ))
        assert picks[0] != picks[1]


class TestRejoinUnderArmedSanitizer:
    """Crash-and-rejoin bursts must survive a sanitized cycle.

    A rejoin mid-cycle re-inserts a node while gossip mass is moving;
    the engine's bounded invariant (mass never created) must hold and
    the converged estimates must stay finite and non-negative.
    """

    @pytest.mark.parametrize("strategy", ["global", "neighbors", "brahms"])
    def test_rejoins_mid_cycle_keep_estimates_finite(self, strategy):
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
        plan = FaultPlan(
            [CrashBurst(at=t + 0.3, fraction=0.1, rejoin_after=10.0) for t in range(2, 40, 6)],
            rng=streams.get("churn"),
        )
        plan.schedule(sim, transport, overlay, on_rejoin=eng.partnering.node_joined)
        set_sanitize_enabled(True)
        try:
            res = eng.run_cycle(S, np.full(n, 1.0 / n))
        finally:
            set_sanitize_enabled(None)
        assert plan.rejoins > 0  # the cycle really saw nodes come back
        assert np.all(np.isfinite(res.v_next))
        assert np.all(res.v_next >= 0.0)
        assert res.gossip_error < 1.0
