"""Parallel experiment sweep runner — fan sweep points across processes.

Every experiment above the engine layer is a loop over independent
*sweep points* — one full measurement per ``(parameters, root seed)``
combination, each building its own :class:`~repro.utils.rng.RngStreams`
from its root seed and therefore sharing no state with any other point.
This module turns that loop shape into infrastructure:

* :class:`SweepPoint` — a declarative work item: a top-level (picklable)
  point function, its keyword parameters, and the root seed.  The
  runner calls ``fn(seed=seed, **kwargs)``; all randomness inside must
  derive from that seed via the :class:`~repro.utils.rng.RngStreams`
  convention, which is exactly what makes worker placement irrelevant
  to the results.
* :func:`run_sweep` — executes the points either inline (``workers=1``,
  byte-identical to the historical serial loops, no pickling involved)
  or fanned out over a :class:`concurrent.futures.ProcessPoolExecutor`
  (``workers > 1``).  Submission is chunked (several points per task,
  amortizing IPC), collection is ordered (outcomes always line up with
  the input points, whatever order workers finish in).
* :class:`SweepOutcome` / :class:`SweepReport` — per-point value plus
  wall time and peak RSS, and sweep-level throughput aggregation.

Determinism contract: because a point's randomness is a pure function
of its root seed, ``run_sweep(points, workers=1)`` and
``run_sweep(points, workers=k)`` return identical ``value`` sequences
for every ``k`` (pinned by ``tests/test_experiments_runner.py``).
Telemetry convention: point functions that want per-cycle telemetry in
the experiment output build a local
:class:`~repro.metrics.telemetry.CycleTelemetry` and return its
``records`` list alongside their measurements —
:class:`~repro.metrics.telemetry.CycleRecord` is a frozen dataclass of
primitives, so it crosses the process boundary untouched.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence

from repro.errors import ExperimentError
from repro.metrics.telemetry import Stopwatch
from repro.utils.proc import PeakRssMeter

__all__ = [
    "SweepPoint",
    "SweepOutcome",
    "SweepReport",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One independent sweep measurement: ``fn(seed=seed, **kwargs)``.

    Attributes
    ----------
    fn:
        A module-level callable (picklable — lambdas and closures cannot
        cross the process boundary).  It must take ``seed`` as a keyword
        argument and derive **all** of its randomness from it.
    kwargs:
        Point parameters, forwarded verbatim.  Values must be picklable
        (plain numbers, strings, tuples — not live RNGs or engines).
    seed:
        The point's root seed (the experiment convention: seeds
        ``0..repeats-1`` per parameter combination).
    label:
        Optional display/debug key (e.g. ``"n=1000/eps=1e-4/s0"``).
    """

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any]
    seed: int
    label: str = ""

    def execute(self) -> "SweepOutcome":
        """Run this point in the current process, timing it.

        Peak RSS is metered per point (:class:`~repro.utils.proc.PeakRssMeter`
        resets the kernel high-water mark), so consecutive points in one
        worker don't all inherit the largest point's lifetime peak.
        """
        meter = PeakRssMeter()
        watch = Stopwatch()
        value = self.fn(seed=self.seed, **dict(self.kwargs))
        return SweepOutcome(
            point=self,
            value=value,
            wall_time=watch.elapsed(),
            peak_rss_kib=meter.read_kib(),
        )


@dataclass
class SweepOutcome:
    """One executed point: its value plus cost telemetry."""

    point: SweepPoint
    #: whatever the point function returned
    value: Any
    #: seconds spent inside the point function (in its worker process)
    wall_time: float
    #: peak RSS over this point's execution interval (KiB; per-point
    #: where the kernel supports high-water-mark resets, lifetime bound
    #: elsewhere)
    peak_rss_kib: float


@dataclass
class SweepReport:
    """Ordered outcomes of one :func:`run_sweep` call plus sweep totals."""

    outcomes: List[SweepOutcome] = field(default_factory=list)
    #: worker processes used (1 = inline serial execution)
    workers: int = 1
    #: end-to-end sweep wall time as seen by the caller (seconds)
    wall_time: float = 0.0

    def values(self) -> List[Any]:
        """The point values, in input-point order."""
        return [o.value for o in self.outcomes]

    @property
    def points_per_second(self) -> float:
        """Sweep throughput (0.0 for an empty or instantaneous sweep)."""
        if not self.outcomes or self.wall_time <= 0.0:
            return 0.0
        return len(self.outcomes) / self.wall_time

    @property
    def total_point_time(self) -> float:
        """Sum of per-point wall times (> ``wall_time`` when parallel)."""
        return sum(o.wall_time for o in self.outcomes)

    @property
    def max_peak_rss_kib(self) -> float:
        """Largest worker peak RSS observed across the sweep (KiB)."""
        return max((o.peak_rss_kib for o in self.outcomes), default=0.0)

    def summary_line(self) -> str:
        """One-line cost summary for experiment notes."""
        return (
            f"sweep: {len(self.outcomes)} points, {self.workers} worker(s), "
            f"{self.wall_time:.3f}s wall ({self.points_per_second:.2f} pts/s), "
            f"peak rss {self.max_peak_rss_kib:.0f} KiB"
        )


def _execute_chunk(chunk: Sequence[SweepPoint]) -> List[SweepOutcome]:
    """Worker task: run a chunk of points back to back (module-level so
    the executor can pickle it)."""
    return [point.execute() for point in chunk]


def _chunk(points: Sequence[SweepPoint], size: int) -> List[List[SweepPoint]]:
    return [list(points[i : i + size]) for i in range(0, len(points), size)]


def run_sweep(
    points: Sequence[SweepPoint],
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> SweepReport:
    """Execute every sweep point; return ordered outcomes and totals.

    Parameters
    ----------
    points:
        The work items, in the order results should be reported.
    workers:
        ``1`` runs the points inline in this process — the exact
        historical serial loop, no executor, no pickling.  ``> 1`` fans
        chunks of points out over a ``ProcessPoolExecutor`` with that
        many workers.  Results are identical either way (each point's
        randomness is a pure function of its seed); only wall time
        changes.
    chunk_size:
        Points per worker task.  Defaults to spreading the sweep over
        ``4 * workers`` tasks (bounded below by 1) — small enough to
        balance load, large enough to amortize submission overhead.
    """
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    points = list(points)
    watch = Stopwatch()
    if workers == 1 or len(points) <= 1:
        outcomes = [point.execute() for point in points]
        return SweepReport(
            outcomes=outcomes,
            workers=1 if workers == 1 else workers,
            wall_time=watch.elapsed(),
        )
    if chunk_size is None:
        chunk_size = max(1, len(points) // (4 * workers))
    elif chunk_size < 1:
        raise ExperimentError(f"chunk_size must be >= 1, got {chunk_size}")
    chunks = _chunk(points, chunk_size)
    outcomes = []
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        # executor.map returns results in submission order regardless of
        # completion order — the ordered-collection guarantee.
        for chunk_outcomes in pool.map(_execute_chunk, chunks):
            outcomes.extend(chunk_outcomes)
    return SweepReport(
        outcomes=outcomes,
        workers=workers,
        wall_time=watch.elapsed(),
    )
