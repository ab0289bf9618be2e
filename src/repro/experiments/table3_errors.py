"""Table 3 — gossip and aggregation errors under three threshold settings.

For a 1000-node network the paper tabulates, per (epsilon, delta)
setting, the number of aggregation cycles, gossip steps per cycle, the
gossip error (relative error the gossip protocol leaves in the scores)
and the aggregation error (distance between the converged gossiped
vector and the exact one).  Expected shape: tighter thresholds cost
more cycles/steps and deliver smaller errors; gossip error lands well
below epsilon; aggregation error tracks delta from below.  Each row also
reports the §4.1 cycle bound
(:func:`~repro.metrics.convergence.theoretical_cycle_bound`, with the
greedy factor folded into the contraction rate) next to the measured
cycles.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust
from repro.experiments.base import ExperimentResult, mean_std, seed_range
from repro.experiments.runner import SweepPoint, run_sweep
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.metrics.convergence import theoretical_cycle_bound
from repro.metrics.reporting import TextTable
from repro.utils.rng import RngStreams

__all__ = ["run_table3", "PAPER_SETTINGS"]

#: the paper's three (epsilon, delta) convergence settings
PAPER_SETTINGS: Tuple[Tuple[float, float], ...] = (
    (1e-5, 1e-4),
    (1e-4, 1e-3),
    (1e-3, 1e-2),
)


def _table3_point(
    *,
    seed: int,
    n: int,
    epsilon: float,
    delta: float,
    alpha: float,
    engine_mode: str,
    engine: str,
) -> Tuple[float, float, float, float, float]:
    """One Table 3 sweep point: a full GossipTrust run for one seed.

    Returns ``(cycles, cycle_bound, mean_steps_per_cycle, gossip_error,
    agg_error)``.
    """
    streams = RngStreams(seed)
    S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
    cfg = GossipTrustConfig(
        n=n,
        alpha=alpha,
        epsilon=epsilon,
        delta=delta,
        engine_mode=engine_mode,
        engine=engine,
        seed=seed,
    )
    result = GossipTrust(S, cfg, rng=streams.get("system")).run(
        raise_on_budget=False, compute_reference=True
    )
    mean_steps = float(sum(result.steps_per_cycle)) / max(
        1, len(result.steps_per_cycle)
    )
    return (
        float(result.cycles),
        float(theoretical_cycle_bound(S, delta, alpha=alpha)),
        mean_steps,
        result.mean_gossip_error,
        result.aggregation_error,
    )


def run_table3(
    *,
    n: int = 1000,
    settings: Sequence[Tuple[float, float]] = PAPER_SETTINGS,
    repeats: int = 3,
    alpha: float = 0.15,
    engine_mode: str = "full",
    engine: str = "sync",
    workers: int = 1,
) -> ExperimentResult:
    """Regenerate Table 3 on synthetic power-law trust matrices.

    ``engine_mode='full'`` runs the protocol exactly (every node holds
    every component); at n = 1000 this is the paper's configuration.
    ``engine`` selects any registered cycle engine by name; the
    aggregation-error column needs the exact oracle, so the reference
    computation stays on regardless of the config default.  ``workers``
    fans the (setting, seed) points over processes via
    :func:`~repro.experiments.runner.run_sweep`.
    """
    table = TextTable(
        [
            "epsilon",
            "delta",
            "agg_cycles",
            "cycle_bound",
            "gossip_steps",
            "gossip_error",
            "agg_error",
        ],
        title=f"Table 3: errors under convergence settings (n={n})",
        float_fmt=".3g",
    )
    raw = {}
    points = [
        SweepPoint(
            fn=_table3_point,
            kwargs={
                "n": n,
                "epsilon": eps,
                "delta": delta,
                "alpha": alpha,
                "engine_mode": engine_mode,
                "engine": engine,
            },
            seed=seed,
            label=f"eps={eps:g}/delta={delta:g}/s{seed}",
        )
        for eps, delta in settings
        for seed in seed_range(repeats)
    ]
    report = run_sweep(points, workers=workers)
    values = iter(report.values())
    for eps, delta in settings:
        per_seed = [next(values) for _ in seed_range(repeats)]
        cycles, bound, steps, gerr, aerr = (
            mean_std(column)[0] for column in zip(*per_seed)
        )
        table.add_row([eps, delta, cycles, bound, steps, gerr, aerr])
        raw[(eps, delta)] = {
            "cycles": cycles,
            "cycle_bound": bound,
            "steps": steps,
            "gossip_error": gerr,
            "aggregation_error": aerr,
        }
    return ExperimentResult(
        experiment_id="table3",
        title="Gossip and aggregation errors under three convergence "
        "threshold settings for a 1000-node P2P network",
        tables=[table],
        data={"rows": {f"{e:g}/{d:g}": v for (e, d), v in raw.items()}},
        notes=[report.summary_line()],
    )
