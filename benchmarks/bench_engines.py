"""Engine shoot-out: every registered cycle engine on one fixed problem.

All engines are built through :func:`repro.gossip.factory.make_engine`
on the same (n, matrix, seed), so the timings compare aggregation
strategies — vectorized synchronous push-sum, message-level DES,
asynchronous Poisson-clock gossip, and the deterministic DHT all-reduce
— not setup noise.  Each round rebuilds the engine so DES state never
leaks between iterations.

Beyond the shoot-out, two contracts no other bench asserts:

* the parallel sweep runner — 2 workers must beat serial wall time on
  a multi-core box (skipped on single-core machines);
* the long-lived reputation service at n = 1000 — once the power-node
  set is stable and <= 1% of trust rows change per epoch, warm-started
  incremental re-aggregation must take fewer gossip steps than a cold
  from-scratch ``GossipTrust.run`` while both converge to the same
  vector (the wall-time floor is asserted by CI's bench-smoke job on
  ``tools/bench_runner.py``'s service section).

Sync-kernel speed, the message engine's cycle time and the large-n
sparse cycle's peak RSS are measured by ``perfbench/`` (the ``cold-1k``,
``des-128`` and ``probe-100k`` workloads) and gated by the ``large_n``
tier of ``tools/bench_runner.py``.
"""

import os

import numpy as np
import pytest

from repro.experiments.fig3_gossip_steps import _fig3_point
from repro.experiments.runner import SweepPoint, run_sweep
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.factory import engine_names, make_engine
from repro.metrics.telemetry import CycleTelemetry
from repro.utils.rng import RngStreams

N = 256
SEED = 0

#: service closed-loop problem size (matches bench_runner's full mode)
SERVICE_N = 1000


@pytest.fixture(scope="module")
def bench_S():
    return synthetic_trust_matrix(N, rng=RngStreams(SEED).get("matrix"))


@pytest.mark.parametrize("name", engine_names())
def test_engine_cycle(benchmark, bench_S, name):
    """One aggregation cycle per engine, same matrix and seed."""
    v = np.full(N, 1.0 / N)

    def one_cycle():
        eng = make_engine(
            name, n=N, rng=RngStreams(SEED),
            epsilon=1e-4, mode="probe", probe_columns=64, max_rounds=400,
        )
        return eng.run_cycle(bench_S, v)

    res = benchmark.pedantic(one_cycle, rounds=3, iterations=1)
    assert res.v_next.sum() == pytest.approx(1.0, abs=1e-6)
    benchmark.extra_info["steps"] = res.steps
    benchmark.extra_info["messages_sent"] = res.messages_sent


def test_sweep_parallel_beats_serial():
    """``run_sweep`` at 2 workers beats serial on a multi-core box.

    Skipped on single-core machines, where process fan-out can only add
    overhead and the contract explicitly does not apply.
    """
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs >= 2 CPUs for parallel speedup")
    points = [
        SweepPoint(
            fn=_fig3_point,
            kwargs={
                "n": 300,
                "epsilon": 1e-3,
                "cycles_per_point": 1,
                "engine": "sync",
            },
            seed=seed,
        )
        for seed in range(8)
    ]
    serial = run_sweep(points, workers=1)
    parallel = run_sweep(points, workers=2)
    assert [v[0] for v in serial.values()] == [v[0] for v in parallel.values()]
    # 2 workers must beat serial; allow generous scheduling overhead.
    assert parallel.wall_time < serial.wall_time * 0.9, (
        f"parallel sweep not faster: {parallel.wall_time:.3f}s (2 workers) "
        f"vs {serial.wall_time:.3f}s (serial)"
    )


def test_service_incremental_beats_scratch():
    """Warm service epochs beat from-scratch aggregation at n = 1000.

    The closed loop bootstraps a mature synthetic network, waits for
    the power-node set to stabilize (warm-start's fixed point is only
    stationary then), and streams feedback batches touching <= 1% of
    rater rows per epoch.  The mean warm epoch — ledger drain, CSR row
    splice, warm ``run``, Bloom store rebuild — must take measurably
    fewer gossip steps than one cold ``GossipTrust.run`` on the
    identical matrix and power-node set, with both converging to the
    same vector (parity within the 2e-3 scale two independently-gossiped
    delta=1e-3 runs can agree to).
    """
    from repro.service import ServeSimConfig, simulate_service

    report = simulate_service(
        ServeSimConfig(
            n=SERVICE_N,
            epochs=4,
            events_per_epoch=100,
            queries_per_epoch=0,
            seed=SEED,
        )
    )
    assert report.power_nodes_stable
    assert all(
        ep.dirty_rows <= SERVICE_N // 100 for ep in report.epoch_reports
    ), "event stream must keep epochs within 1% dirty rows"
    assert report.step_speedup > 1.0, (
        f"warm epoch not measurably fewer steps: x{report.step_speedup:.2f}"
    )
    assert report.vector_error < 2e-3, (
        f"warm and cold fixed points disagree: err={report.vector_error:.2e}"
    )


def test_engine_telemetry_snapshot(results_dir, bench_S):
    """Persist a side-by-side telemetry table for all engines."""
    telemetry = CycleTelemetry()
    v = np.full(N, 1.0 / N)
    for cycle, name in enumerate(engine_names(), start=1):
        eng = make_engine(
            name, n=N, rng=RngStreams(SEED),
            epsilon=1e-4, mode="probe", probe_columns=64, max_rounds=400,
        )
        telemetry.timed(cycle, eng, bench_S, v)
    text = telemetry.render() + "\nengines: " + ", ".join(engine_names())
    (results_dir / "engines.txt").write_text(text + "\n")
    assert len(telemetry) == len(engine_names())
