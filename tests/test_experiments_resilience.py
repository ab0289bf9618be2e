"""Churn-resilience sweep: axes, determinism, worker bit-identity."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.churn_resilience import run_churn_resilience
from repro.experiments.registry import run_experiment


SMALL = dict(
    n=32,
    strategies=("global", "brahms"),
    plans=("crash",),
    engines=("message",),
    repeats=1,
)


class TestSweep:
    def test_quick_registry_run(self):
        result = run_experiment("resilience", quick=True, n=32)
        assert result.experiment_id == "resilience"
        assert result.tables and result.series
        # One raw error entry (plus /isolated and /overhead) per cell.
        errors = {
            k: v
            for k, v in result.data.items()
            if not k.endswith(("/isolated", "/overhead"))
        }
        assert len(errors) == 2  # 2 strategies x 1 plan x 1 engine
        for v in errors.values():
            assert v == v and v < 1.0  # finite, gracefully degraded

    def test_unknown_plan_rejected(self):
        with pytest.raises(ExperimentError, match="unknown fault plan"):
            run_churn_resilience(**{**SMALL, "plans": ("meteor",)})

    def test_singular_kwargs_restrict_axes(self):
        result = run_churn_resilience(
            **{**SMALL, "strategy": "global", "plan": "crash", "engine": "message"}
        )
        cells = [
            k for k in result.data if not k.endswith(("/isolated", "/overhead"))
        ]
        assert cells == ["message/global/crash"]

    def test_bare_string_axes_are_one_value(self):
        # `--set plans=partition` (no comma) reaches the sweep as a bare
        # string; it must mean one plan, not its characters.
        result = run_churn_resilience(
            **{
                **SMALL,
                "strategies": "global",
                "plans": "crash",
                "engines": "message",
            }
        )
        cells = [
            k for k in result.data if not k.endswith(("/isolated", "/overhead"))
        ]
        assert cells == ["message/global/crash"]

    def test_partial_views_not_permanently_isolated(self):
        result = run_churn_resilience(
            n=32,
            strategies=("brahms",),
            plans=("crash",),
            engines=("message",),
            repeats=1,
        )
        assert result.data["message/brahms/crash/isolated"] == 0.0


class TestDeterminism:
    def test_workers_bit_identical(self):
        """The sweep-runner contract: workers=4 replays workers=1 exactly."""
        kwargs = dict(SMALL, repeats=2)
        serial = run_churn_resilience(workers=1, **kwargs)
        fanned = run_churn_resilience(workers=4, **kwargs)
        assert serial.data == fanned.data

    def test_repeat_runs_identical(self):
        a = run_churn_resilience(**SMALL)
        b = run_churn_resilience(**SMALL)
        assert a.data == b.data
