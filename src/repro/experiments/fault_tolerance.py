"""Fault tolerance — message loss, link failures, churn (§7 claims).

"The system can also tolerate link failures and peer collusions" and is
"adaptive to peer dynamics".  This experiment quantifies those claims on
the message-level engine: one gossiped aggregation cycle under

* independent message loss at rates 0..30% (the transport's constant
  loss rate),
* a fraction ``f`` of failed overlay links: one
  :class:`~repro.network.faultplan.LinkFlap` that cuts ``int(f·|E|)``
  random topology links at t = 0 and never heals inside the cycle,
* ``d`` mid-cycle peer departures: ``d``
  :class:`~repro.network.faultplan.CrashBurst` events of one node each,
  one round apart from round 2 on,

reporting the gossip error and round count per condition as a median
[IQR] over seeds.  The expected shape: push-sum loses (x, w) mass
*proportionally* when messages drop, so the converged ratio degrades
gracefully rather than diverging.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.config import GossipTrustConfig
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult, seed_range
from repro.experiments.runner import SweepPoint, run_sweep
from repro.experiments.synthetic import des_substrate
from repro.gossip.factory import make_engine
from repro.gossip.message_engine import AsyncMessageGossipEngine
from repro.metrics.reporting import Series, TextTable, percentile
from repro.metrics.telemetry import CycleRecord, CycleTelemetry
from repro.network.faultplan import CrashBurst, FaultEvent, FaultPlan, LinkFlap

__all__ = ["run_fault_tolerance"]

DEFAULT_LOSS_RATES = (0.0, 0.05, 0.10, 0.20, 0.30)

#: the round clock's pacing and budget; the Poisson clock runs to its
#: own ``max_time``, and departures are paced in rounds on either clock
_ROUND_INTERVAL = 2.0
_MAX_ROUNDS = 300

#: the link cut is one flap that stays down for half its period: twice
#: the longer of the two clocks' budgets, so it never heals in a cycle
_CUT_PERIOD = 4.0 * max(_MAX_ROUNDS * _ROUND_INTERVAL, AsyncMessageGossipEngine.max_time)


def _fault_events(fault: str, level: float, n_edges: int) -> List[FaultEvent]:
    """The fault-plan events of one axis level over ``n_edges`` links.

    ``link/f`` is one flap cutting ``int(f·n_edges)`` links at t = 0;
    ``churn/d`` is ``d`` one-node crashes, one round apart from round 2.
    ``loss`` has no events: its level is the transport's loss rate.
    """
    if fault == "loss":
        return []
    if fault == "link":
        k = int(n_edges * level)
        return [LinkFlap(start=0.0, count=k, period=_CUT_PERIOD, cycles=1)] if k else []
    if fault == "churn":
        return [CrashBurst(at=_ROUND_INTERVAL * (2 + i), count=1) for i in range(int(level))]
    raise ExperimentError(f"unknown fault axis {fault!r}")


def _cycle(fault: str, level: float) -> Tuple[str, float]:
    """The cycle a cell runs: level 0 of every axis is one fault-free cycle."""
    return (fault, level) if level else ("loss", 0.0)


def _fault_point(
    *, seed: int, n: int, fault: str, level: float, engine: str
) -> Tuple[Tuple[float, float, float], List[CycleRecord]]:
    """One fault-tolerance sweep point: a single faulted cycle.

    Returns ``((gossip_error, rounds, mass_lost), records)``.
    """
    streams, S, sim, overlay, transport = des_substrate(
        n, seed, loss_rate=float(level) if fault == "loss" else 0.0
    )
    events = _fault_events(fault, level, sum(1 for _ in overlay.live_subgraph().edges()))
    if events:
        # The plan draws from "failures" before the engine spawns its
        # own streams, and the run to t = 0 puts a link cut in force
        # before round 1 sends.
        FaultPlan(events, rng=streams.get("failures")).schedule(sim, transport, overlay)
        sim.run(until=sim.now)
    clock = (
        {"round_interval": _ROUND_INTERVAL, "max_rounds": _MAX_ROUNDS}
        if engine == "message"
        else {}
    )
    eng = make_engine(
        engine,
        GossipTrustConfig(n=n, epsilon=1e-4),
        rng=streams,
        sim=sim,
        transport=transport,
        overlay=overlay,
        **clock,
    )
    telemetry = CycleTelemetry()
    res = telemetry.timed(1, eng, S, np.full(n, 1.0 / n))
    return (
        (res.gossip_error, float(res.steps), res.mass_lost_fraction),
        telemetry.records,
    )


def run_fault_tolerance(
    *,
    n: int = 128,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    link_failure_fractions: Sequence[float] = (0.0, 0.1, 0.2),
    departure_counts: Sequence[int] = (0, 8, 16),
    repeats: int = 10,
    engine: str = "message",
    workers: int = 1,
) -> ExperimentResult:
    """Sweep the three fault axes on a message-level engine.

    ``engine`` may be ``"message"`` (synchronized rounds) or ``"async"``
    (per-node Poisson clocks) — both run real messages on the DES.
    ``workers`` fans the (fault, level, seed) points over processes.
    Each cell's ``data`` entry is its median gossip error over the
    ``repeats`` seeds; ``<cell>/q1``, ``<cell>/q3`` hold the quartiles
    and ``<cell>/seeds`` the per-seed errors.  Level 0 of every axis is
    the same fault-free cycle: it runs once and fills each such cell.
    """
    table = TextTable(
        ["fault", "level", "error_median", "error_q1", "error_q3", "rounds", "mass_lost"],
        title=(
            f"Fault tolerance of one gossiped cycle (n={n}, {engine} engine, "
            f"median [IQR] over {repeats} seeds)"
        ),
        float_fmt=".3g",
    )
    loss_series = Series(label="message loss")
    link_series = Series(label="link failure")
    churn_series = Series(label="departures")
    raw = {}
    telemetry = CycleTelemetry()

    axes = [
        ("loss", loss_series, list(loss_rates)),
        ("link", link_series, list(link_failure_fractions)),
        ("churn", churn_series, list(departure_counts)),
    ]
    cycles = list(
        dict.fromkeys(_cycle(fault, level) for fault, _, levels in axes for level in levels)
    )
    points = [
        SweepPoint(
            fn=_fault_point,
            kwargs={"n": n, "fault": fault, "level": level, "engine": engine},
            seed=seed,
            label=f"{fault}/{level:g}/s{seed}",
        )
        for fault, level in cycles
        for seed in seed_range(repeats)
    ]
    report = run_sweep(points, workers=workers)
    values = iter(report.values())
    runs = {cycle: [next(values) for _ in seed_range(repeats)] for cycle in cycles}
    for seeds in runs.values():
        for _, records in seeds:
            telemetry.records.extend(records)
    for fault, series, levels in axes:
        for level in levels:
            errs, rounds, lost = [], [], []
            for (err, steps, mass), _ in runs[_cycle(fault, level)]:
                errs.append(err)
                rounds.append(steps)
                lost.append(mass)
            med, q1, q3 = (percentile(errs, q) for q in (50.0, 25.0, 75.0))
            table.add_row(
                [fault, level, med, q1, q3, percentile(rounds, 50.0), percentile(lost, 50.0)]
            )
            series.add(level, med)
            key = f"{fault}/{level}" if fault == "churn" else f"{fault}/{level:g}"
            raw[key] = med
            raw[f"{key}/q1"] = q1
            raw[f"{key}/q3"] = q3
            raw[f"{key}/seeds"] = errs

    return ExperimentResult(
        experiment_id="fault",
        title="Gossip error under message loss, link failure, and churn",
        tables=[table],
        series=[loss_series, link_series, churn_series],
        data=raw,
        notes=[
            "Faults are FaultPlan events: link/f is one LinkFlap cutting "
            "int(f*|E|) topology links at t=0 for the whole cycle; churn/d is "
            "d one-node CrashBursts, one round apart from round 2; loss/q is "
            "the transport's constant loss rate.",
            "Gossip partners are sampled globally (the paper's default); "
            "link failures therefore thin random pairs rather than cut the flood tree.",
            f"engine={engine!r} via make_engine.",
            telemetry.summary_line(),
            report.summary_line(),
        ],
    )
