"""The parallel sweep runner: ordering, chunking, errors, determinism.

The load-bearing property is the determinism contract — fanning sweep
points over worker processes must not change any experiment output,
because every point derives all randomness from its own root seed.  The
end-to-end tests pin that for the rewired experiments by comparing
``workers=1`` against ``workers=4`` runs field by field (notes are
excluded: they carry wall-time summaries that legitimately differ).
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import runner
from repro.experiments.fig3_gossip_steps import run_fig3
from repro.experiments.runner import SweepOutcome, SweepPoint, SweepReport, run_sweep
from repro.experiments.table3_errors import run_table3
from repro.utils.rng import RngStreams


def _square_point(*, seed, offset=0):
    return seed * seed + offset


def _rng_point(*, seed):
    return float(RngStreams(seed).get("draw").random())


def _failing_point(*, seed):
    raise RuntimeError(f"point {seed} exploded")


def _points(fn, count, **kwargs):
    return [SweepPoint(fn=fn, kwargs=kwargs, seed=s, label=f"s{s}") for s in range(count)]


class TestRunSweep:
    def test_inline_executes_in_order(self):
        report = run_sweep(_points(_square_point, 5, offset=1), workers=1)
        assert report.values() == [s * s + 1 for s in range(5)]
        assert report.workers == 1
        assert len(report.outcomes) == 5
        assert all(isinstance(o, SweepOutcome) for o in report.outcomes)
        assert all(o.wall_time >= 0.0 for o in report.outcomes)

    def test_parallel_preserves_order_and_values(self):
        points = _points(_square_point, 9, offset=2)
        serial = run_sweep(points, workers=1)
        parallel = run_sweep(points, workers=4)
        assert parallel.values() == serial.values()
        assert parallel.workers == 4
        assert [o.point.seed for o in parallel.outcomes] == list(range(9))

    def test_parallel_matches_serial_rng_values(self):
        points = _points(_rng_point, 6)
        assert run_sweep(points, workers=3).values() == run_sweep(points).values()

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 100])
    def test_explicit_chunk_size_keeps_order(self, chunk_size, monkeypatch):
        chunk = runner._chunk
        monkeypatch.setattr(runner, "_chunk", lambda points, _size: chunk(points, chunk_size))
        points = _points(_square_point, 7)
        report = run_sweep(points, workers=2)
        assert report.values() == [s * s for s in range(7)]

    def test_empty_sweep(self):
        report = run_sweep([], workers=4)
        assert report.values() == []
        assert report.points_per_second == 0.0
        assert report.max_peak_rss_kib == 0.0

    def test_single_point_runs_inline(self):
        report = run_sweep(_points(_square_point, 1), workers=8)
        assert report.values() == [0]

    @pytest.mark.parametrize("count, workers, used", [(1, 2, 1), (3, 4, 3)])
    def test_reports_the_processes_it_used(self, count, workers, used):
        report = run_sweep(_points(_square_point, count), workers=workers)
        assert report.workers == used
        assert f"{used} worker(s)" in report.summary_line()

    def test_workers_validation(self):
        with pytest.raises(ExperimentError):
            run_sweep(_points(_square_point, 2), workers=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_errors_propagate(self, workers):
        with pytest.raises(RuntimeError, match="exploded"):
            run_sweep(_points(_failing_point, 3), workers=workers)

    def test_report_aggregates(self):
        report = run_sweep(_points(_square_point, 4))
        assert report.max_peak_rss_kib >= 0.0
        line = report.summary_line()
        assert "4 points" in line and "worker" in line

    def test_points_per_second(self):
        report = SweepReport(
            outcomes=[
                SweepOutcome(
                    point=SweepPoint(fn=_square_point, kwargs={}, seed=0),
                    value=0,
                    wall_time=0.5,
                    peak_rss_kib=1.0,
                )
            ]
            * 4,
            workers=2,
            wall_time=2.0,
        )
        assert report.points_per_second == pytest.approx(2.0)


def _strip_volatile(result):
    """Experiment output minus notes (notes carry wall-time summaries)."""
    return {
        "id": result.experiment_id,
        "tables": [t.render() for t in result.tables],
        "series": [(s.label, s.x, s.y) for s in result.series],
        "data": result.data,
    }


class TestParallelExperimentDeterminism:
    """workers=4 must reproduce workers=1 experiment output exactly."""

    def test_fig3_quick(self):
        kwargs = dict(
            sizes=(40, 60), epsilons=(1e-2,), repeats=2, cycles_per_point=1
        )
        serial = run_fig3(workers=1, **kwargs)
        parallel = run_fig3(workers=4, **kwargs)
        assert _strip_volatile(serial) == _strip_volatile(parallel)

    def test_table3_quick(self):
        kwargs = dict(n=60, repeats=2)
        serial = run_table3(workers=1, **kwargs)
        parallel = run_table3(workers=4, **kwargs)
        assert _strip_volatile(serial) == _strip_volatile(parallel)
