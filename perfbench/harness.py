"""The measurement loops: untraced (end-to-end) and traced (per-layer) runs."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ReproError
from repro.metrics.reporting import percentile
from repro.utils.proc import PeakRssMeter
from spans import Tracer, installed, layer_metrics
from summary import highest_percentile
from workloads import Op, Workload

__all__ = ["SETUP_REPEATS", "Clock", "Result", "measure", "measure_traced", "summaries"]

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3


class Clock:
    """The ``timed`` callable handed to workloads.

    Times one public call; when tracing, the call runs inside the
    tracer's current operation, so its layer spans are recorded.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.op: Any = None

    def __call__(self, fn: Any, *args: Any, **kwargs: Any) -> Any:
        if self.tracer is not None:
            self.tracer.enter(self.op)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.leave()
        return result, wall


@dataclass
class Result:
    ops: List[Op]
    metrics: Dict[str, float]
    samples: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)


def _run_op(workload: Workload, state: Any, index: int, clock: Clock) -> Op:
    """One timed operation; a library error fails the operation, not the run."""
    clock.op = index
    try:
        return workload.op(state, index, clock)
    except ReproError as exc:
        return Op(float("nan"), 0, np.empty(0), error=f"{type(exc).__name__}: {exc}")


def _set_up(workload: Workload, seed: int, clock: Clock) -> Any:
    """Build the workload's state and run its untimed warm-up operation."""
    state = workload.setup(seed)
    clock.op = "setup"
    warm = workload.op(state, 0, clock)
    if warm.error is not None:
        raise RuntimeError(f"warm-up operation failed: {warm.error}")
    return state


def measure(workload: Workload, seed: int, seconds: float) -> Result:
    """Untraced run: set up ``SETUP_REPEATS`` times, then operate for ``seconds``."""
    clock = Clock()
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before building the next
        gc.collect()
        start = time.perf_counter()
        state = _set_up(workload, seed, clock)
        setups.append(time.perf_counter() - start)
    meter = PeakRssMeter()
    ops: List[Op] = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(_run_op(workload, state, len(ops), clock))
    peak_mib = meter.read_kib() / 1024.0
    cycles = [wall for op in ops for wall in op.cycle_walls]
    metrics = {
        "setup_s": statistics.median(setups),
        "cycle_s.p10": percentile(cycles, 10) if cycles else float("nan"),
        "peak_rss_mib": peak_mib,
    }
    samples = {
        "setup_s": setups,
        "cycle_s": cycles,
        "aggregate_s": [op.wall_s for op in ops if op.cycles],
    }
    return Result(ops, metrics, samples)


def measure_traced(
    workload: Workload, seed: int, seconds: float, spans_path: Optional[str] = None
) -> Result:
    """Traced run: the same operations untraced, then traced.

    Both halves start from a fresh set-up on the same seed, so operation
    ``i`` of each must return bitwise the same vector; a traced
    operation that does not fails.
    """
    count = workload.trace_ops(seconds)
    clock = Clock()
    state = _set_up(workload, seed, clock)
    plain = [_run_op(workload, state, i, clock) for i in range(count)]
    state = None
    gc.collect()
    tracer = Tracer()
    clock = Clock(tracer)
    with installed(tracer):
        tracer.enter("setup")
        start = time.perf_counter()
        state = _set_up(workload, seed, clock)
        setup_s = time.perf_counter() - start
        tracer.leave()
        traced = [_run_op(workload, state, i, clock) for i in range(count)]
    state = None
    for a, b in zip(plain, traced):
        if b.error is None and a.vector.tobytes() != b.vector.tobytes():
            b.error = "traced vector differs from the untraced one"
    if spans_path:
        tracer.write(spans_path)
    samples = {
        "aggregate_s": [op.wall_s for op in plain],
        "traced_aggregate_s": [op.wall_s for op in traced],
    }
    return Result(plain + traced, layer_metrics(tracer, plain, traced, setup_s), samples)


def summaries(samples: Dict[str, List[float]]) -> Dict[str, dict]:
    """Count, median and the highest percentile with ten samples beyond it."""
    out = {}
    for name, values in samples.items():
        entry: Dict[str, Any] = {"count": len(values), "p50": percentile(values, 50)}
        top = highest_percentile(len(values))
        if top is not None and top > 50:
            entry[f"p{top:g}"] = percentile(values, top)
        out[name] = entry
    return out
