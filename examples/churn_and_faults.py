#!/usr/bin/env python
"""Gossip under fire: message loss, link failures, and churn.

Runs one gossiped aggregation cycle on the *message-level* engine — real
messages on a discrete-event simulator over a Gnutella-like overlay —
while injecting faults, and reports how far the gossiped scores land
from the exact computation.  This is the machinery behind the paper's
fault-tolerance claims (§7): push-sum needs no error recovery because
lost messages remove x- and w-mass together, leaving the surviving
ratios approximately right.

Link failures and churn are :class:`~repro.network.faultplan.FaultPlan`
events on the simulator clock; message loss is the transport's rate.

Run:  python examples/churn_and_faults.py
"""

import numpy as np

from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.message_engine import MessageGossipEngine
from repro.network.faultplan import CrashBurst, FaultPlan, LinkFlap
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.utils.rng import RngStreams

N = 96
ROUND_INTERVAL = 2.0
MAX_ROUNDS = 300
#: simulated time the cycle's round budget spans
BUDGET = ROUND_INTERVAL * MAX_ROUNDS


def run_cycle(label: str, *, loss=0.0, failed_links=0, churn=False, seed=0):
    streams = RngStreams(seed)
    S = synthetic_trust_matrix(N, rng=streams.get("matrix"))
    sim = Simulator()
    topo = gnutella_like(N, rng=streams.get("topo"))
    overlay = Overlay(topo, rng=streams.get("overlay"))
    transport = Transport(sim, latency=1.0, loss_rate=loss, rng=streams.get("net"))
    engine = MessageGossipEngine(
        sim, transport, overlay, epsilon=1e-4, round_interval=ROUND_INTERVAL,
        max_rounds=MAX_ROUNDS, rng=streams.get("gossip"),
    )

    events = []
    if failed_links:
        # One flap that stays down for half its period: a cut that
        # outlasts the cycle.
        events.append(LinkFlap(start=0.0, count=failed_links, period=4 * BUDGET, cycles=1))
    if churn:
        # Active churn: every 10 time units 5% of the live peers crash,
        # and each comes back 25 time units later.
        events += [
            CrashBurst(at=t, fraction=0.05, rejoin_after=25.0)
            for t in (5.0, 15.0, 25.0, 35.0, 45.0)
        ]
    plan = FaultPlan(events, rng=streams.get("failures"))
    plan.schedule(sim, transport, overlay, on_rejoin=engine.partnering.node_joined)

    res = engine.run_cycle(S, np.full(N, 1.0 / N))
    faults = plan.summary()
    print(
        f"{label:<28} rounds={res.steps:<4} sent={res.messages_sent:<6} "
        f"dropped={res.messages_dropped:<5} mass_lost={res.mass_lost_fraction:6.1%} "
        f"crashes={faults['crashes']:<3} rejoins={faults['rejoins']:<3} "
        f"gossip_error={res.gossip_error:.2e}"
    )
    return res


def main() -> None:
    print(f"one gossiped aggregation cycle, {N} nodes, message-level engine\n")
    run_cycle("fault-free")
    run_cycle("5% message loss", loss=0.05)
    run_cycle("15% message loss", loss=0.15)
    run_cycle("30 failed overlay links", failed_links=30)
    run_cycle("active churn", churn=True)
    run_cycle("loss + links + churn", loss=0.05, failed_links=20, churn=True)
    print(
        "\nReading: without faults gossip is exact to ~1e-6; faults cost "
        "accuracy in proportion to the mass they remove, but the protocol "
        "never diverges and needs no retransmission machinery."
    )


if __name__ == "__main__":
    main()
