"""Fault tolerance — message loss, link failures, churn (§7 claims).

"The system can also tolerate link failures and peer collusions" and is
"adaptive to peer dynamics".  This experiment quantifies those claims on
the message-level engine: one gossiped aggregation cycle under

* independent message loss at rates 0..30%,
* a fraction of failed overlay links,
* mid-cycle peer departures,

reporting the gossip error and round count per condition.  The expected
shape: push-sum loses (x, w) mass *proportionally* when messages drop,
so the converged ratio degrades gracefully — errors stay orders of
magnitude below the score scale even at heavy loss.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GossipTrustConfig
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult, mean_std, seed_range
from repro.experiments.runner import SweepPoint, run_sweep
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.base import GossipCycleResult
from repro.gossip.factory import make_engine
from repro.metrics.reporting import Series, TextTable
from repro.metrics.telemetry import CycleRecord, CycleTelemetry
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.utils.rng import RngStreams

__all__ = ["run_fault_tolerance"]

DEFAULT_LOSS_RATES = (0.0, 0.05, 0.10, 0.20, 0.30)


def _one_cycle(
    n: int,
    seed: int,
    *,
    loss_rate: float = 0.0,
    failed_link_fraction: float = 0.0,
    departures: int = 0,
    epsilon: float = 1e-4,
    engine: str = "message",
    round_interval: float = 2.0,
    telemetry: Optional[CycleTelemetry] = None,
) -> "GossipCycleResult":
    """Run one message-level cycle under the given fault injection.

    ``round_interval`` and the 300-round budget are the round clock's
    (``"message"``); the Poisson clock (``"async"``) runs to its own
    ``max_time`` default.  Departures are scheduled in units of
    ``round_interval`` on either clock.
    """
    streams = RngStreams(seed)
    S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
    sim = Simulator()
    topo = gnutella_like(n, rng=streams.get("topology"))
    overlay = Overlay(topo, rng=streams.get("overlay"))
    transport = Transport(sim, latency=1.0, loss_rate=loss_rate, rng=streams.get("net"))
    if failed_link_fraction > 0:
        gen = streams.get("failures")
        edges = list(topo.edges())
        k = int(len(edges) * failed_link_fraction)
        for idx in gen.choice(len(edges), size=k, replace=False):
            u, v = edges[int(idx)]
            transport.fail_link(u, v)
    clock: Dict[str, float] = (
        {"round_interval": round_interval, "max_rounds": 300}
        if engine == "message"
        else {}
    )
    eng = make_engine(
        engine,
        GossipTrustConfig(n=n, epsilon=epsilon),
        rng=streams,
        sim=sim,
        transport=transport,
        overlay=overlay,
        **clock,
    )
    if departures > 0:
        gen = streams.get("churn")
        victims = gen.choice(n, size=departures, replace=False)
        # Depart mid-cycle: one leave per round, starting two rounds in.
        # Scheduled in units of round_interval so changing the pacing
        # keeps churn aligned with cycle progress (hard-coded absolute
        # times would silently shift where in the cycle churn lands).
        for i, victim in enumerate(victims.tolist()):
            sim.call_in(
                round_interval * (2 + i), _leave_if_alive, overlay, int(victim)
            )
    v = np.full(n, 1.0 / n)
    if telemetry is not None:
        return telemetry.timed(1, eng, S, v)
    return eng.run_cycle(S, v)


def _leave_if_alive(overlay: Overlay, node: int) -> None:
    if overlay.is_alive(node) and overlay.alive_count > 2:
        overlay.leave(node)


#: fault axis name -> how a sweep level maps onto ``_one_cycle`` kwargs
_FAULT_AXES = {
    "loss": lambda level: {"loss_rate": float(level)},
    "link": lambda level: {"failed_link_fraction": float(level)},
    "churn": lambda level: {"departures": int(level)},
}


def _fault_point(
    *, seed: int, n: int, fault: str, level: float, engine: str
) -> Tuple[Tuple[float, float, float], List[CycleRecord]]:
    """One fault-tolerance sweep point: a single faulted cycle.

    Returns ``((gossip_error, rounds, mass_lost), records)``.
    """
    if fault not in _FAULT_AXES:
        raise ExperimentError(f"unknown fault axis {fault!r}")
    telemetry = CycleTelemetry()
    res = _one_cycle(
        n, seed, engine=engine, telemetry=telemetry, **_FAULT_AXES[fault](level)
    )
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
    repeats: int = 3,
    engine: str = "message",
    workers: int = 1,
) -> ExperimentResult:
    """Sweep the three fault axes on a message-level engine.

    ``engine`` may be ``"message"`` (synchronized rounds) or ``"async"``
    (per-node Poisson clocks) — both run real messages on the DES.
    ``workers`` fans the (fault, level, seed) points over processes.
    """
    table = TextTable(
        ["fault", "level", "gossip_error", "rounds", "mass_lost"],
        title=f"Fault tolerance of one gossiped cycle (n={n}, {engine} engine)",
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
    points = [
        SweepPoint(
            fn=_fault_point,
            kwargs={"n": n, "fault": fault, "level": level, "engine": engine},
            seed=seed,
            label=f"{fault}/{level:g}/s{seed}",
        )
        for fault, _, levels in axes
        for level in levels
        for seed in seed_range(repeats)
    ]
    report = run_sweep(points, workers=workers)
    values = iter(report.values())
    for fault, series, levels in axes:
        for level in levels:
            errs, rounds, lost = [], [], []
            for _ in seed_range(repeats):
                (err, steps, mass), records = next(values)
                errs.append(err)
                rounds.append(steps)
                lost.append(mass)
                telemetry.records.extend(records)
            m_err, _ = mean_std(errs)
            table.add_row([fault, level, m_err, mean_std(rounds)[0], mean_std(lost)[0]])
            series.add(level, m_err)
            key = f"{fault}/{level}" if fault == "churn" else f"{fault}/{level:g}"
            raw[key] = m_err

    return ExperimentResult(
        experiment_id="fault",
        title="Gossip error under message loss, link failure, and churn",
        tables=[table],
        series=[loss_series, link_series, churn_series],
        data=raw,
        notes=[
            "Gossip partners are sampled globally (the paper's default); "
            "link failures therefore thin random pairs rather than cut the flood tree.",
            f"engine={engine!r} via make_engine.",
            telemetry.summary_line(),
            report.summary_line(),
        ],
    )
