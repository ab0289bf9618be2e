#!/usr/bin/env python
"""Pinned engine benchmark sweep -> ``BENCH_engines.json`` at the repo root.

Runs one aggregation cycle per (engine, n) on a fixed synthetic matrix
and seed, records median wall time, step count, and peak memory, and
writes the machine-readable trajectory file future PRs diff against for
no-regression checks.  Two pinned modes:

* default — n in {250, 500, 1000}, 3 repeats per cell;
* ``--quick`` — same n sweep, 1 repeat (CI's bench-smoke job).

The sync engine's one step loop is measured in full and in probe mode.
The two DES engines (message and async) run at n <= 500 (they simulate
every point-to-point message; larger sweeps belong to the
pytest-benchmark suite), and their cells record the transport's
``messages``, ``bytes`` and ``dropped`` counts and the simulator's
``events``.

Since schema 2 an ``end_to_end`` section extends the per-cycle cells:

* full multi-cycle ``GossipTrust.run`` wall time;
* sweep-runner throughput (points/sec) at workers in {1, 2, 4}
  ({1, 2} in quick mode) over Fig. 3-style points.

Since schema 3 a ``service`` section measures the long-lived
:class:`~repro.service.ReputationService` closed loop via
:func:`~repro.service.simulate_service`: sustained ingest events/sec,
Bloom-store query throughput, served-score staleness, and the
incremental-vs-scratch comparison — mean warm-started epoch against a
cold from-scratch ``GossipTrust.run`` on the identical matrix and
power-node set (``wall_speedup``/``step_speedup``, plus the vector
parity error between the two).  Schema 3 also stamps caller-supplied
provenance: ``--label`` and ``--commit`` are recorded verbatim (both
passed in, never read from a clock or ``git`` here, so runs stay
deterministic and offline-friendly).

Since schema 4:

* every entry's ``peak_rss_kib`` is *per-entry* (a
  :class:`~repro.utils.proc.PeakRssMeter` resets the kernel RSS
  high-water mark around each measurement instead of reporting the
  monotone process-lifetime peak for every cell);
* per-cycle entries and the end-to-end runs carry a ``phases``
  breakdown (``setup``/``oracle``/``alloc``/``kernel``/``estimate``
  seconds) so the artifact explains *where* wall time goes — e.g. how
  much of a cycle the workspace alloc actually costs;
* a ``large_n`` section runs the memory-bounded probe path at n in
  {10^4, 10^5} (quick mode: 10^4 only) in both
  float64 and float32, recording wall time and per-point peak RSS
  against explicit per-n budgets (``within_rss_budget`` /
  ``within_wall_budget``) plus the float32-vs-float64 score deviation.
  These points measure the cost of gossiping the p = 64 probe columns:
  a probe cycle's ``v_next`` is the exact oracle ``S^T v``, which the
  section's ``measures`` line states in the payload itself.
  ``--large-only`` runs just this tier and exits non-zero when a
  budget is blown (the ``make bench-large`` gate).

Since schema 5 an opt-in ``--xlarge`` flag extends the tier with the
n = 10^6 point (streaming matrix construction, ~2*10^7 edges) against
explicit budgets — 3 GiB peak RSS for float64, 2 GiB for float32,
with generous wall ceilings.  ``make bench-xlarge`` is the
gated entry point (``--large-only --xlarge``); the default and
``--quick`` sweeps never pay for it.

Since schema 6 a ``resilience`` section runs the churn-resilience
sweep (``experiments/churn_resilience.py``) at a pinned operating
point: partner strategies under the scripted ``crash`` fault plan with
the engines' mass-restoration guard armed, recording per-cell gossip
error, membership overhead fraction, and permanently-isolated live
nodes (``zero_isolated`` must stay ``true`` — the self-healing
acceptance line).  Quick mode trims the grid to the message engine and
two strategies.

Schema 7 follows the sync engine down to one step loop: the per-cycle
grid drops the ``fast``/``legacy`` kernel cells for one full-mode and
one probe-mode cell, and ``end_to_end`` records one ``GossipTrust.run``
cell (no workspace-reuse on/off pair, no ``workspace_reuse_speedup``).

Schema 8 follows the engine down to one process and derived shards:
``large_n`` points no longer record a shard configuration (the engine
derives its column split from the state size).

Schema 9 follows the engine onto threads (one per usable core, at
least 16 columns and 2^16 entries each), so the provenance stamps
``usable_cores`` (the process's affinity mask) and the derived
``step_threads`` (:func:`~repro.gossip.engine.step_threads` of the
n = 10^6 64-column probe cycle, which steps one column block per
thread).

``--compare OLD NEW`` is the regression gate: over the cells both
payloads share (per-cycle entries by engine, n and options; end-to-end
runs by n; the service and its epochs by n; large-n points by n and
dtype; resilience cells by n, plan and cell), it exits 1 on any change
in steps, cycles, ``converged``, nnz, messages, bytes, drops, events or
a resilience cell's error, isolated count or overhead — seeded runs
make all of them exact — and on a ``peak_rss_kib`` that moved by more
than the larger of 15% and 20 MiB (RSS barely moves between runs, so
the band passes library-version drift and catches a regression or a
stale baseline).  It exits 2 when the files share no cell.  Wall times
are not compared.

Usage::

    PYTHONPATH=src python tools/bench_runner.py [--quick] [--large-only]
        [--xlarge] [--output PATH] [--label TEXT] [--commit SHA]
    PYTHONPATH=src python tools/bench_runner.py --compare OLD.json NEW.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.config import GossipTrustConfig  # noqa: E402
from repro.core.gossiptrust import GossipTrust  # noqa: E402
from repro.experiments.fig3_gossip_steps import _fig3_point  # noqa: E402
from repro.experiments.runner import SweepPoint, run_sweep  # noqa: E402
from repro.experiments.synthetic import synthetic_trust_matrix  # noqa: E402
from repro.gossip.engine import (  # noqa: E402
    SynchronousGossipEngine,
    _usable_cores,
    step_threads,
)
from repro.gossip.factory import make_engine  # noqa: E402
from repro.service import ServeSimConfig, simulate_service  # noqa: E402
from repro.utils.proc import PeakRssMeter  # noqa: E402
from repro.utils.rng import RngStreams  # noqa: E402

SEED = 0
EPSILON = 1e-4
N_SWEEP = (250, 500, 1000)
#: DES-engine cap: they simulate every message, so they sweep small n
MESSAGE_N_MAX = 500
#: end-to-end GossipTrust.run problem size (quick mode shrinks it)
E2E_N = 1000
E2E_N_QUICK = 250
#: sweep-throughput worker fan-out (quick mode trims to {1, 2})
SWEEP_WORKERS = (1, 2, 4)
SWEEP_WORKERS_QUICK = (1, 2)
#: Fig. 3-style sweep-point parameters for the throughput benchmark
SWEEP_POINT_N = 300
SWEEP_POINT_N_QUICK = 150
SWEEP_POINTS = 8
#: service closed-loop problem size (the acceptance operating point)
SERVICE_N = 1000
SERVICE_N_QUICK = 250
#: measured ingest/query/aggregate epochs in the service section
SERVICE_EPOCHS = 4
SERVICE_EPOCHS_QUICK = 2
#: probe width of the large-n tier (the sync engine's constant)
PROBE_COLUMNS = SynchronousGossipEngine.probe_columns
#: large-n probe tier (quick mode runs the first point only)
LARGE_N_SWEEP = (10_000, 100_000)
#: the opt-in ``--xlarge`` extension point (``make bench-xlarge``)
XLARGE_N = 1_000_000
#: per-n budgets for the large tier: peak RSS (KiB) and wall time (s).
#: The 10^5 RSS budget is a prior acceptance line (2 GiB); the 10^6
#: budgets are per-dtype (3 GiB float64 / 2 GiB float32 — the three
#: dense state slots, the dense prev buffer, and the ~2*10^7-edge
#: matrix together).  Wall
#: budgets are ~4x the observed times, loose enough for CI.
LARGE_N_BUDGETS = {
    10_000: {"rss_kib": 1 * 1024 * 1024, "wall_s": 60.0},
    100_000: {"rss_kib": 2 * 1024 * 1024, "wall_s": 300.0},
    XLARGE_N: {
        "rss_kib": 3 * 1024 * 1024,
        "rss_kib_float32": 2 * 1024 * 1024,
        "wall_s": 1800.0,
    },
}
#: resilience-section operating point (schema 6): strategies under the
#: scripted crash plan, mass-restoration guard armed
RESILIENCE_N = 96
RESILIENCE_N_QUICK = 48
RESILIENCE_STRATEGIES = ("global", "neighbors", "brahms")
RESILIENCE_STRATEGIES_QUICK = ("global", "brahms")
RESILIENCE_ENGINES = ("message", "async")
RESILIENCE_ENGINES_QUICK = ("message",)


def bench_cell(engine: str, n: int, repeats: int, **overrides) -> dict:
    """Median-of-``repeats`` wall time for one engine at one n.

    ``overrides`` are the engine's own constructor options (recorded as
    the cell's ``options``); epsilon comes from the shared config.
    """
    config = GossipTrustConfig(n=n, epsilon=EPSILON)
    S = synthetic_trust_matrix(n, rng=RngStreams(SEED).get("matrix"))
    v = np.full(n, 1.0 / n)
    times = []
    steps = converged = None
    phases = {}
    meter = PeakRssMeter()  # per-entry peak: reset *after* building S
    for _ in range(repeats):
        eng = make_engine(engine, config, rng=RngStreams(SEED), **overrides)
        t0 = time.perf_counter()
        result = eng.run_cycle(S, v)
        times.append(time.perf_counter() - t0)
        steps, converged = int(result.steps), bool(result.converged)
        phases = {
            k: round(float(s), 6)
            for k, s in (getattr(result, "phase_times", {}) or {}).items()
        }
    traffic = {}
    transport = getattr(eng, "transport", None)
    if transport is not None:  # a DES engine: seeded, so exact per repeat
        traffic = {
            "messages": transport.sent,
            "bytes": transport.bytes_sent,
            "dropped": transport.drop_count,
            "events": eng.sim.events_processed,
        }
    return {
        "engine": engine,
        "n": n,
        "wall_time_s": round(sorted(times)[len(times) // 2], 6),
        "wall_times_s": [round(t, 6) for t in times],
        "steps": steps,
        "converged": converged,
        "peak_rss_kib": meter.read_kib(),
        "peak_rss_per_entry": meter.exact,
        "phases": phases,
        **traffic,
        "options": overrides,
    }


def bench_full_run(n: int, repeats: int) -> dict:
    """Median full multi-cycle ``GossipTrust.run`` wall time at ``n``."""
    S = synthetic_trust_matrix(n, rng=RngStreams(SEED).get("matrix"))
    cfg = GossipTrustConfig(n=n, epsilon=EPSILON, seed=SEED)
    cell = {"kind": "gossiptrust_run", "n": n, "wall_times_s": []}

    def once() -> float:
        system = GossipTrust(S, cfg, engine=make_engine("sync", cfg, rng=RngStreams(SEED)))
        meter = PeakRssMeter()
        t0 = time.perf_counter()
        result = system.run(raise_on_budget=False, compute_reference=False)
        elapsed = time.perf_counter() - t0
        cell["cycles"] = int(result.cycles)
        cell["total_gossip_steps"] = int(result.total_gossip_steps)
        cell["peak_rss_kib"] = max(cell.get("peak_rss_kib", 0.0), meter.read_kib())
        # Where the run's wall time went, summed over its cycles.
        cell["phases"] = {
            k: round(s, 6) for k, s in result.telemetry.phase_summary().items()
        }
        return elapsed

    once()  # warm caches outside the measured repeats
    for _ in range(repeats):
        cell["wall_times_s"].append(round(once(), 6))
    times = cell["wall_times_s"]
    cell["wall_time_s"] = sorted(times)[len(times) // 2]
    return cell


def bench_sweeps(point_n: int, workers_list) -> list:
    """Sweep-runner throughput over Fig. 3-style points per worker count."""
    points = [
        SweepPoint(
            fn=_fig3_point,
            kwargs={
                "n": point_n,
                "epsilon": 1e-3,
                "cycles_per_point": 1,
                "engine": "sync",
            },
            seed=seed,
            label=f"bench/n={point_n}/s{seed}",
        )
        for seed in range(SWEEP_POINTS)
    ]
    rows = []
    for workers in workers_list:
        report = run_sweep(points, workers=workers)
        rows.append(
            {
                "kind": "sweep",
                "point_n": point_n,
                "points": len(points),
                "workers": workers,
                "wall_time_s": round(report.wall_time, 6),
                "points_per_second": round(report.points_per_second, 3),
                "peak_rss_kib": report.max_peak_rss_kib,
            }
        )
    return rows


def run_end_to_end(quick: bool) -> dict:
    """The schema-2 section: full-run wall time and sweep throughput."""
    repeats = 1 if quick else 3
    n = E2E_N_QUICK if quick else E2E_N
    run = bench_full_run(n, repeats)
    print(
        f"{'gossiptrust.run':55s} "
        f"n={n:5d}  {run['wall_time_s']:8.3f}s  cycles={run['cycles']}"
    )
    sweeps = bench_sweeps(
        SWEEP_POINT_N_QUICK if quick else SWEEP_POINT_N,
        SWEEP_WORKERS_QUICK if quick else SWEEP_WORKERS,
    )
    for row in sweeps:
        print(
            f"{'sweep workers=' + str(row['workers']):55s} "
            f"n={row['point_n']:5d}  {row['wall_time_s']:8.3f}s  "
            f"{row['points_per_second']:.2f} pts/s"
        )
    return {
        "runs": [run],
        "sweeps": sweeps,
        "cpu_count": os.cpu_count(),
    }


def run_service(quick: bool) -> dict:
    """The schema-3 section: the long-lived service closed loop.

    One :func:`simulate_service` run at the pinned seed: bootstrap a
    mature synthetic network, stabilize the power-node set, then stream
    concentrated feedback batches (~1% of rater rows per epoch) through
    warm-started aggregation epochs while serving Bloom-store lookups.
    The recorded speedups compare the mean warm epoch against one cold
    from-scratch run on the same matrix and power-node set.
    """
    cfg = ServeSimConfig(
        n=SERVICE_N_QUICK if quick else SERVICE_N,
        epochs=SERVICE_EPOCHS_QUICK if quick else SERVICE_EPOCHS,
        events_per_epoch=50 if quick else 100,
        queries_per_epoch=200 if quick else 500,
        seed=SEED,
    )
    report = simulate_service(cfg)
    print(
        f"{'service ingest/query':55s} n={cfg.n:5d}  "
        f"{report.ingest_events_per_s:10.0f} ev/s  "
        f"{report.queries_per_s:8.0f} q/s  "
        f"staleness={report.mean_staleness_events:.1f}"
    )
    print(
        f"{'service warm epoch (mean) vs cold scratch':55s} n={cfg.n:5d}  "
        f"{report.warm_wall_s:8.3f}s vs {report.cold_wall_s:.3f}s  "
        f"x{report.wall_speedup:.2f} wall  x{report.step_speedup:.2f} steps"
    )
    return {
        "n": cfg.n,
        "epochs": cfg.epochs,
        "events_per_epoch": cfg.events_per_epoch,
        "queries_per_epoch": cfg.queries_per_epoch,
        "dirty_fraction": cfg.dirty_fraction,
        "mean_balance": cfg.mean_balance,
        "warmup_epochs": report.warmup_epochs,
        "power_nodes_stable": report.power_nodes_stable,
        "ingest_events_per_s": round(report.ingest_events_per_s, 1),
        "queries_per_s": round(report.queries_per_s, 1),
        "mean_staleness_events": round(report.mean_staleness_events, 2),
        "max_staleness_events": report.max_staleness_events,
        "warm_cycles_mean": round(report.warm_cycles, 2),
        "warm_steps_mean": round(report.warm_steps, 1),
        "warm_wall_s_mean": round(report.warm_wall_s, 6),
        "cold_cycles": report.cold_cycles,
        "cold_steps": report.cold_steps,
        "cold_wall_s": round(report.cold_wall_s, 6),
        "wall_speedup": round(report.wall_speedup, 3),
        "step_speedup": round(report.step_speedup, 3),
        "vector_error": round(report.vector_error, 8),
        "store_compression": round(report.store_compression, 3),
        "epochs_detail": [
            {
                "epoch": ep.epoch,
                "dirty_rows": ep.dirty_rows,
                "events_absorbed": ep.events_absorbed,
                "cycles": ep.cycles,
                "gossip_steps": ep.gossip_steps,
                "power_node_churn": round(ep.power_node_churn, 4),
                "wall_time_s": round(ep.wall_time_s, 6),
            }
            for ep in report.epoch_reports
        ],
    }


def run_large_n(quick: bool, xlarge: bool = False) -> dict:
    """The schema-4/5 section: the memory-bounded probe path at large n.

    One converged probe-mode cycle per (n, dtype) on the pinned
    synthetic matrix.  Peak
    RSS is metered per point, with the meter started *after* the trust
    matrix is built so the reading is the kernel's own working set on
    top of the resident baseline.  float32 points also record their
    score deviation against the float64 run at the same n (probe mode
    substitutes the exact oracle column, so this is ~0 by
    construction; the per-point ``gossip_error`` is what carries the
    dtype's estimate quality) and check against the per-dtype RSS
    budget when one is set (the 10^6 point: 3 GiB float64 / 2 GiB
    float32).  ``xlarge`` appends the n = 10^6 point — about a minute
    of gossip plus matrix construction, so it stays behind
    ``make bench-xlarge``.
    """
    tiers = LARGE_N_SWEEP[:1] if quick else LARGE_N_SWEEP
    if xlarge:
        tiers = tuple(tiers) + (XLARGE_N,)
    points = []
    for n in tiers:
        budget = LARGE_N_BUDGETS[n]
        S = synthetic_trust_matrix(n, rng=RngStreams(SEED).get("matrix"))
        v = np.full(n, 1.0 / n)
        v64 = None
        for dtype in ("float64", "float32"):
            rss_budget = budget.get(f"rss_kib_{dtype}", budget["rss_kib"])
            config = GossipTrustConfig(
                n=n, epsilon=EPSILON, engine_mode="probe", dtype=dtype
            )
            eng = make_engine("sync", config, rng=RngStreams(SEED))
            meter = PeakRssMeter()
            t0 = time.perf_counter()
            result = eng.run_cycle(S, v)
            wall = time.perf_counter() - t0
            rss = meter.read_kib()
            point = {
                "n": n,
                "mode": "probe",
                "dtype": dtype,
                "wall_time_s": round(wall, 6),
                "steps": int(result.steps),
                "converged": bool(result.converged),
                "gossip_error": float(result.gossip_error),
                "nnz": int(S.nnz),
                "peak_rss_kib": rss,
                "peak_rss_per_entry": meter.exact,
                "rss_budget_kib": rss_budget,
                "wall_budget_s": budget["wall_s"],
                "within_rss_budget": bool(rss <= rss_budget),
                "within_wall_budget": bool(wall <= budget["wall_s"]),
                "phases": {
                    k: round(float(s), 6)
                    for k, s in (getattr(result, "phase_times", {}) or {}).items()
                },
            }
            if dtype == "float64":
                v64 = np.asarray(result.v_next, dtype=np.float64)
            elif v64 is not None:
                dev = float(np.max(np.abs(np.asarray(result.v_next) - v64)))
                point["max_abs_dev_vs_float64"] = dev
            points.append(point)
            del eng  # release the slot arrays before the next dtype's run
            print(
                f"{'large-n probe dtype=' + dtype:55s} n={n:7d}  "
                f"{wall:8.3f}s  steps={point['steps']}  "
                f"rss={rss / 1024:.0f} MiB (budget {rss_budget / 1024:.0f})"
            )
        del S
    return {
        "measures": (
            f"the cost of gossiping p = {PROBE_COLUMNS} probe columns; "
            "v_next of a probe cycle is the exact oracle S^T v"
        ),
        "tiers": list(tiers),
        "budgets": {str(n): LARGE_N_BUDGETS[n] for n in tiers},
        "points": points,
        "all_within_budget": all(
            p["within_rss_budget"] and p["within_wall_budget"] for p in points
        ),
    }


def run_resilience(quick: bool) -> dict:
    """The schema-6 section: self-healing gossip under scripted chaos.

    Runs the churn-resilience sweep at a pinned seed: every strategy in
    the grid survives the ``crash`` fault plan (two bursts, partial
    rejoin) with the engines' mass-restoration guard armed at the
    default budget.  The recorded acceptance line is ``zero_isolated``:
    no partial-view strategy may leave a live node permanently without
    live peers after the plan heals.
    """
    from repro.experiments.churn_resilience import run_churn_resilience

    n = RESILIENCE_N_QUICK if quick else RESILIENCE_N
    strategies = RESILIENCE_STRATEGIES_QUICK if quick else RESILIENCE_STRATEGIES
    engines = RESILIENCE_ENGINES_QUICK if quick else RESILIENCE_ENGINES
    start = time.perf_counter()
    result = run_churn_resilience(
        n=n,
        strategies=strategies,
        plans=("crash",),
        engines=engines,
        repeats=1,
        workers=1,
    )
    wall = time.perf_counter() - start
    errors = {
        key: value
        for key, value in result.data.items()
        if not key.endswith(("/isolated", "/overhead"))
    }
    isolated = {
        key[: -len("/isolated")]: value
        for key, value in result.data.items()
        if key.endswith("/isolated")
    }
    overhead = {
        key[: -len("/overhead")]: value
        for key, value in result.data.items()
        if key.endswith("/overhead")
    }
    for cell, err in sorted(errors.items()):
        print(
            f"{'resilience ' + cell:55s} n={n:5d}  err={err:8.3g}  "
            f"iso={isolated[cell]:g}  ovh={overhead[cell]:.3f}"
        )
    return {
        "n": n,
        "plan": "crash",
        "strategies": list(strategies),
        "engines": list(engines),
        "error": errors,
        "isolated": isolated,
        "overhead_fraction": overhead,
        "max_error": max(errors.values()),
        "zero_isolated": all(v == 0.0 for v in isolated.values()),
        "wall_time_s": round(wall, 3),
    }


def provenance(label: str, commit: str) -> dict:
    """The caller's label and commit, the interpreter, and the step threads.

    ``label``/``commit`` are caller-supplied (empty when not passed),
    never read from a clock or VCS here, so the run stays deterministic.
    """
    return {
        "label": label,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "usable_cores": _usable_cores(),
        "step_threads": step_threads(XLARGE_N, PROBE_COLUMNS),
    }


#: per-cell fields a change must leave exactly as they were (seeded runs
#: make them exact); messages/bytes/dropped/events count where a section
#: records them
DETERMINISTIC_FIELDS = (
    "steps", "converged", "cycles", "total_gossip_steps", "gossip_steps", "nnz",
    "cold_cycles", "cold_steps", "warm_cycles_mean", "warm_steps_mean",
    "messages", "bytes", "dropped", "events",
)

#: a cell's peak RSS may move by the larger of these (perfbench's RSS
#: bound, and a floor for small cells) before the compare fails
RSS_BAND_FRACTION = 0.15
RSS_BAND_KIB = 20 * 1024


def deterministic_cells(payload: dict) -> dict:
    """``{cell key: {field: value}}`` of a payload's gated metrics.

    The deterministic fields plus ``peak_rss_kib`` where a cell records
    it, which the compare checks within its band rather than exactly.
    """
    cells = {}

    def add(key: tuple, record: dict) -> None:
        picked = {
            f: record[f]
            for f in DETERMINISTIC_FIELDS + ("peak_rss_kib",)
            if f in record
        }
        if picked:
            cells[key] = picked

    for e in payload.get("entries", []):
        options = json.dumps(e.get("options", {}), sort_keys=True)
        add(("entries", e["engine"], e["n"], options), e)
    for r in payload.get("end_to_end", {}).get("runs", []):
        add(("end_to_end", r["kind"], r["n"]), r)
    service = payload.get("service")
    if service:
        add(("service", service["n"]), service)
        for ep in service.get("epochs_detail", []):
            add(("service", service["n"], "epoch", ep["epoch"]), ep)
    for p in payload.get("large_n", {}).get("points", []):
        add(("large_n", p["n"], p["dtype"]), p)
    res = payload.get("resilience")
    if res:
        for cell, err in res["error"].items():
            cells[("resilience", res["n"], res["plan"], cell)] = {
                "error": err,
                "isolated": res["isolated"][cell],
                "overhead_fraction": res["overhead_fraction"][cell],
            }
    return cells


def rss_within_band(was: float, now: float) -> bool:
    """Whether a peak-RSS reading stayed inside the compare's band."""
    return abs(now - was) <= max(RSS_BAND_FRACTION * was, RSS_BAND_KIB)


def compare(old: dict, new: dict) -> tuple:
    """``(shared cell count, differences)`` of two payloads' gated metrics.

    Raises ``ValueError`` when the payloads share no cell (a comparison
    that checks nothing must not pass).
    """
    before = deterministic_cells(old)
    after = deterministic_cells(new)
    shared = [key for key in before if key in after]
    if not shared:
        raise ValueError("the two payloads share no benchmark cell")
    diffs = []
    for key in shared:
        for field, was in before[key].items():
            if field not in after[key]:
                continue
            now = after[key][field]
            if field == "peak_rss_kib":
                if rss_within_band(was, now):
                    continue
            elif now == was:
                continue
            cell = "/".join(str(part) for part in key)
            diffs.append(f"{cell}: {field} {was!r} -> {now!r}")
    return len(shared), diffs


def run_compare(old_path: pathlib.Path, new_path: pathlib.Path) -> int:
    """``--compare``: 0 if the shared cells agree, 1 on a change, 2 if none."""
    old = json.loads(old_path.read_text())
    new = json.loads(new_path.read_text())
    try:
        shared, diffs = compare(old, new)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    for line in diffs:
        print(f"changed {line}")
    rss = sum(": peak_rss_kib " in line for line in diffs)
    print(
        f"compare: {shared} shared cells, {len(diffs) - rss} deterministic "
        f"changes, {rss} peak-RSS changes outside the band"
    )
    return 1 if diffs else 0


def run(
    quick: bool,
    *,
    label: str = "",
    commit: str = "",
    large_only: bool = False,
    xlarge: bool = False,
) -> dict:
    if large_only:
        return {
            "schema": 9,
            "quick": quick,
            "large_only": True,
            "xlarge": xlarge,
            "seed": SEED,
            "epsilon": EPSILON,
            **provenance(label, commit),
            "large_n": run_large_n(quick, xlarge=xlarge),
        }
    repeats = 1 if quick else 3
    entries = []
    for n in N_SWEEP:
        cells = [
            ("sync", {"mode": "full"}),
            ("sync", {"mode": "probe"}),
        ]
        if n <= MESSAGE_N_MAX:
            cells.append(("message", {"max_rounds": 400}))
            cells.append(("async", {}))
        for engine, overrides in cells:
            cell = bench_cell(engine, n, repeats, **overrides)
            cell_label = "+".join(
                [engine, *(f"{k}={v}" for k, v in sorted(overrides.items()))]
            )
            print(
                f"{cell_label:55s} n={n:5d}  {cell['wall_time_s']:8.3f}s  "
                f"steps={cell['steps']}"
            )
            entries.append(cell)
    return {
        "schema": 9,
        "quick": quick,
        "xlarge": xlarge,
        "seed": SEED,
        "epsilon": EPSILON,
        **provenance(label, commit),
        "entries": entries,
        "end_to_end": run_end_to_end(quick),
        "service": run_service(quick),
        "large_n": run_large_n(quick, xlarge=xlarge),
        "resilience": run_resilience(quick),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="1 repeat per cell (CI smoke mode)"
    )
    parser.add_argument(
        "--large-only",
        action="store_true",
        help="run only the large-n probe tier; exit non-zero when a "
        "wall-time or peak-RSS budget is blown (the `make bench-large` gate)",
    )
    parser.add_argument(
        "--xlarge",
        action="store_true",
        help="extend the large-n tier with the opt-in n=10^6 point "
        "(about a minute of gossip; the `make bench-xlarge` gate)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_engines.json",
        help="output JSON path (default: BENCH_engines.json at the repo root)",
    )
    parser.add_argument(
        "--label",
        default="",
        help="free-form provenance label stamped into the payload "
        "(e.g. a PR id or machine name; caller-supplied, not derived)",
    )
    parser.add_argument(
        "--commit",
        default="",
        help="commit SHA stamped into the payload (pass `git rev-parse HEAD` "
        "from the caller; the runner never shells out to git itself)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        type=pathlib.Path,
        metavar=("OLD", "NEW"),
        help="compare two payloads' deterministic metrics and peak RSS over "
        "their shared cells (exit 1 on a change, 2 when they share no cell); "
        "runs nothing",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    payload = run(
        quick=args.quick,
        label=args.label,
        commit=args.commit,
        large_only=args.large_only,
        xlarge=args.xlarge,
    )
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if (args.large_only or args.xlarge) and not payload["large_n"]["all_within_budget"]:
        print("large-n budget blown", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
