"""Fig. 3 — gossip step counts vs gossip error threshold, per network size.

The paper plots, for three network configurations, the number of gossip
steps needed per aggregation cycle as the gossip error threshold
``epsilon`` sweeps from loose to tight.  Expected shape (§6.2):

* steps grow as epsilon shrinks;
* for small epsilon (<= 1e-4) the curves of different sizes nearly
  coincide — the threshold dominates;
* for large epsilon (>= 1e-2) network size dominates;
* overall O(log n + log 1/epsilon), i.e. scalable.

Any registered engine can execute the sweep (``engine=...`` /
``--engine`` on the CLI); the deterministic ``structured`` all-reduce
yields flat ``ceil(log2 n)`` curves — the contrast the §7 discussion
draws.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.config import GossipTrustConfig
from repro.experiments.base import ExperimentResult, mean_std, seed_range
from repro.experiments.runner import SweepPoint, run_sweep
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.factory import make_engine
from repro.metrics.reporting import Series, TextTable
from repro.metrics.telemetry import CycleRecord, CycleTelemetry
from repro.utils.rng import RngStreams

__all__ = ["run_fig3"]

#: paper sweep (x axis); loosest to tightest
DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
#: the three network configurations
DEFAULT_SIZES = (1000, 2000, 4000)


def _fig3_point(
    *,
    seed: int,
    n: int,
    epsilon: float,
    cycles_per_point: int = 3,
    engine: str = "sync",
    dtype: str = "float64",
) -> Tuple[float, List[CycleRecord]]:
    """One Fig. 3 sweep point: mean steps over ``cycles_per_point`` cycles.

    Module-level and seed-pure so :func:`~repro.experiments.runner.run_sweep`
    can ship it to worker processes; returns the measurement plus the
    point's per-cycle telemetry records.  The probe mode, step budget
    and ``dtype`` (buffer precision) are the sync engine's config
    fields; the other engines do not read them.
    """
    streams = RngStreams(seed)
    S = synthetic_trust_matrix(n, rng=streams.get("matrix"))
    config = GossipTrustConfig(
        n=n,
        epsilon=epsilon,
        engine_mode="probe",
        max_gossip_steps=20_000,
        dtype=dtype,
    )
    eng = make_engine(engine, config, rng=streams)
    v = np.full(n, 1.0 / n)
    telemetry = CycleTelemetry()
    steps = []
    for cycle in range(cycles_per_point):
        res = telemetry.timed(cycle + 1, eng, S, v)
        steps.append(float(res.steps))
        v = res.v_next / res.v_next.sum()
    return float(np.mean(steps)), telemetry.records


def run_fig3(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    repeats: int = 3,
    cycles_per_point: int = 3,
    engine: str = "sync",
    dtype: str = "float64",
    workers: int = 1,
) -> ExperimentResult:
    """Measure mean gossip steps per cycle for each (n, epsilon).

    Per data point: build a fresh power-law trust matrix, run
    ``cycles_per_point`` gossiped aggregation cycles (probe mode for
    the vectorized engine), and average the step counts; repeat over
    ``repeats`` seeds.  ``engine`` selects any registered cycle engine.
    ``workers`` fans the sweep points over that many processes (results
    are identical to ``workers=1``; each point is a pure function of
    its seed).
    """
    table = TextTable(
        ["n", "epsilon", "steps_mean", "steps_std"],
        title="Fig. 3: gossip steps per cycle vs gossip error threshold",
        float_fmt=".4g",
    )
    series = [Series(label=f"n={n}") for n in sizes]
    raw = {}
    telemetry = CycleTelemetry()
    points = [
        SweepPoint(
            fn=_fig3_point,
            kwargs={
                "n": n,
                "epsilon": eps,
                "cycles_per_point": cycles_per_point,
                "engine": engine,
                "dtype": dtype,
            },
            seed=seed,
            label=f"n={n}/eps={eps:g}/s{seed}",
        )
        for n in sizes
        for eps in epsilons
        for seed in seed_range(repeats)
    ]
    report = run_sweep(points, workers=workers)
    values = iter(report.values())
    for si, n in enumerate(sizes):
        for eps in epsilons:
            per_seed = []
            for _ in seed_range(repeats):
                mean_steps, records = next(values)
                per_seed.append(mean_steps)
                telemetry.records.extend(records)
            mean, std = mean_std(per_seed)
            table.add_row([n, eps, mean, std])
            series[si].add(eps, mean)
            raw[(n, eps)] = (mean, std)
    return ExperimentResult(
        experiment_id="fig3",
        title="Gossip step counts of three P2P network configurations "
        "under various gossip error thresholds",
        tables=[table],
        series=series,
        data={"steps": {f"{n}/{eps:g}": raw[(n, eps)][0] for n, eps in raw}},
        notes=[
            f"engine={engine!r} via make_engine; probe mode applies to "
            "the vectorized engine (all columns share the mixing "
            "matrix; see gossip/engine.py), which the other engines "
            "do not have.",
            telemetry.summary_line(),
            report.summary_line(),
        ],
        chart_hints={"log_x": True, "x_label": "epsilon", "y_label": "steps"},
    )
