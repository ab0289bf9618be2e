"""Churn resilience — partner strategies under scripted chaos.

The fault-tolerance experiment sweeps one fault axis at a time (a
constant loss rate, a static link cut, staggered single crashes) under
the omniscient global partner sampler.  This sweep runs the full
robustness stack instead: every partner strategy (global oracle,
neighbors-only, Brahms) on both DES engines under the named
:class:`~repro.network.faultplan.FaultPlan` scenarios — crash bursts
with rejoin, a mid-run partition that heals, a loss ramp — with the
engine-level mass-restoration guard armed.  Both experiments gossip on
the same substrate
(:func:`~repro.experiments.synthetic.des_substrate`).

Per (engine x strategy x plan) cell it reports:

* aggregation quality: gossip error vs the exact oracle, rounds to
  converge, mass lost, mass restorations fired;
* view health after the run: live nodes whose view holds no live peer
  (isolation), weakly-connected components of the live view graph, mean
  live degree;
* overhead: membership maintenance messages plus reliable-probe
  retries/acks (the price of failure detection).

Each clock runs under its own cycle budget: the round clock
(``"message"``) stops after 150 rounds, the Poisson clock (``"async"``)
at its ``max_time`` default of 2000 simulated time units (about 800
equivalent rounds in these chaos cells).  An async cell that does not
converge reports where that budget cut it.

The acceptance shape: errors stay within the same order of magnitude as
the global-sampling baseline, and the partial-view protocol ends every
healed scenario with zero permanently-isolated live nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GossipTrustConfig
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult, mean_std, seed_range
from repro.experiments.runner import SweepPoint, run_sweep
from repro.experiments.synthetic import des_substrate
from repro.gossip.factory import make_engine
from repro.metrics.reporting import Series, TextTable
from repro.network.faultplan import named_plan, plan_names

__all__ = ["run_churn_resilience"]

DEFAULT_STRATEGIES = ("global", "neighbors", "brahms")
DEFAULT_PLANS = ("crash", "partition", "loss_ramp")
DEFAULT_ENGINES = ("message", "async")

#: simulated-time span the named plans scale their event times to;
#: chosen so a typical cycle (40-60 rounds at interval 2) runs past the
#: last heal/rejoin event before it converges
_PLAN_HORIZON = 100.0


def _resilience_point(
    *,
    seed: int,
    n: int,
    strategy: str,
    plan: str,
    engine: str,
    mass_restore_budget: float,
) -> Tuple[float, ...]:
    """One chaos run: (engine, strategy, plan) under a fresh substrate.

    Returns a flat metric tuple (see ``_METRICS`` for the order).
    """
    streams, S, sim, overlay, transport = des_substrate(n, seed, loss_rate=0.0)
    config = GossipTrustConfig(
        n=n, partner_strategy=strategy, mass_restore_budget=mass_restore_budget
    )
    # The 150-round budget is the round clock's; the Poisson clock runs
    # to its max_time default (2000 time units, ~800 equivalent rounds).
    clock: Dict[str, int] = {"max_rounds": 150} if engine == "message" else {}
    eng = make_engine(
        engine,
        config,
        rng=streams,
        sim=sim,
        transport=transport,
        overlay=overlay,
        **clock,
    )
    fault_plan = named_plan(plan, horizon=_PLAN_HORIZON, rng=streams.get("faults"))
    fault_plan.schedule(
        sim,
        transport,
        overlay,
        on_rejoin=eng.partnering.node_joined,
    )
    overhead_before = transport.sent
    res = eng.run_cycle(S, np.full(n, 1.0 / n))
    health = eng.partnering.health()
    stats = eng.partnering.retry_stats()
    maintenance = (
        health.maintenance_messages + int(stats["sent"]) + int(stats["acks_sent"])
    )
    total_sent = transport.sent - overhead_before
    overhead_fraction = maintenance / total_sent if total_sent else 0.0
    return (
        float(res.gossip_error),
        float(res.steps),
        float(res.mass_lost_fraction),
        float(res.mass_restorations),
        float(health.isolated_live_nodes),
        float(health.components),
        float(health.mean_live_degree),
        float(int(stats["retries"]) + int(stats["gave_up"])),
        float(overhead_fraction),
        1.0 if res.converged else 0.0,
    )


_METRICS = (
    "error",
    "rounds",
    "mass_lost",
    "restorations",
    "isolated",
    "components",
    "live_degree",
    "retries",
    "overhead_frac",
    "converged",
)


def run_churn_resilience(
    *,
    n: int = 96,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    plans: Sequence[str] = DEFAULT_PLANS,
    engines: Sequence[str] = DEFAULT_ENGINES,
    repeats: int = 2,
    mass_restore_budget: float = 0.25,
    workers: int = 1,
    strategy: Optional[str] = None,
    plan: Optional[str] = None,
    engine: Optional[str] = None,
) -> ExperimentResult:
    """Sweep partner strategies x fault plans x DES engines.

    ``strategy`` / ``plan`` / ``engine`` restrict the corresponding axis
    to a single value (the CLI's ``--strategy`` / ``--engine`` flags);
    the plural forms set the whole axis.  ``workers`` fans the seeded
    points over processes with bit-identical results.
    """
    if strategy is not None:
        strategies = (strategy,)
    if plan is not None:
        plans = (plan,)
    if engine is not None:
        engines = (engine,)
    # A bare string from `--set plans=partition` is one axis value, not
    # a character sequence.
    if isinstance(strategies, str):
        strategies = (strategies,)
    if isinstance(plans, str):
        plans = (plans,)
    if isinstance(engines, str):
        engines = (engines,)
    for p in plans:
        if p not in plan_names():
            known = ", ".join(plan_names())
            raise ExperimentError(f"unknown fault plan {p!r}; known: {known}")

    table = TextTable(
        [
            "engine",
            "strategy",
            "plan",
            "error",
            "rounds",
            "mass_lost",
            "restores",
            "isolated",
            "components",
            "overhead",
        ],
        title=f"Churn resilience under scripted fault plans (n={n})",
        float_fmt=".3g",
    )
    cells = [
        (eng_name, strat, p)
        for eng_name in engines
        for strat in strategies
        for p in plans
    ]
    points = [
        SweepPoint(
            fn=_resilience_point,
            kwargs={
                "n": n,
                "strategy": strat,
                "plan": p,
                "engine": eng_name,
                "mass_restore_budget": mass_restore_budget,
            },
            seed=seed,
            label=f"{eng_name}/{strat}/{p}/s{seed}",
        )
        for (eng_name, strat, p) in cells
        for seed in seed_range(repeats)
    ]
    report = run_sweep(points, workers=workers)
    values = iter(report.values())

    raw: Dict[str, object] = {}
    series_by_strategy: Dict[str, Series] = {
        strat: Series(label=strat) for strat in strategies
    }
    plan_index = {p: i for i, p in enumerate(plans)}
    for eng_name, strat, p in cells:
        metric_lists: List[List[float]] = [[] for _ in _METRICS]
        for _ in seed_range(repeats):
            metrics = next(values)
            for slot, value in zip(metric_lists, metrics):
                slot.append(value)
        means = {name: mean_std(vals)[0] for name, vals in zip(_METRICS, metric_lists)}
        table.add_row(
            [
                eng_name,
                strat,
                p,
                means["error"],
                means["rounds"],
                means["mass_lost"],
                means["restorations"],
                means["isolated"],
                means["components"],
                means["overhead_frac"],
            ]
        )
        if eng_name == engines[0]:
            series_by_strategy[strat].add(plan_index[p], means["error"])
        raw[f"{eng_name}/{strat}/{p}"] = means["error"]
        raw[f"{eng_name}/{strat}/{p}/isolated"] = means["isolated"]
        raw[f"{eng_name}/{strat}/{p}/overhead"] = means["overhead_frac"]

    return ExperimentResult(
        experiment_id="resilience",
        title="Partner strategies under scripted crash/partition/loss chaos",
        tables=[table],
        series=list(series_by_strategy.values()),
        data=raw,
        notes=[
            "Fault plans are seeded schedules (network/faultplan.py) applied "
            "mid-cycle; membership strategies must detect and repair live.",
            f"mass_restore_budget={mass_restore_budget:g} arms the engines' "
            "self-healing guard (renormalize on message, restart on async).",
            "overhead = membership maintenance + reliable probes + acks, as a "
            "fraction of all transport messages.",
            f"series x-axis indexes plans in order: {', '.join(plans)}.",
            report.summary_line(),
        ],
    )
