"""Engine registry/factory, config-driven selection, oracle decoupling,
and per-cycle telemetry."""

import numpy as np
import pytest

from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust
from repro.errors import ConfigurationError
from repro.gossip.base import CycleEngine, GossipCycleResult
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.factory import (
    DEFAULT_ENGINE,
    engine_names,
    make_engine,
    register_engine,
)
from repro.metrics.telemetry import CycleRecord, CycleTelemetry
from repro.utils.rng import RngStreams


class TestRegistry:
    def test_all_four_engines_registered(self):
        assert set(engine_names()) >= {"sync", "message", "async", "structured"}
        assert DEFAULT_ENGINE in engine_names()

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError, match="sync"):
            make_engine("warp-drive", n=8)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_engine("sync", lambda *a: None)

    def test_replace_allows_override_and_restore(self):
        from repro.gossip.factory import _build_sync

        seen = {}

        def spy(n, config, streams, sim, transport, overlay, options):
            seen["n"] = n
            return _build_sync(n, config, streams, sim, transport, overlay, options)

        register_engine("sync", spy, replace=True)
        try:
            eng = make_engine("sync", n=8)
            assert seen["n"] == 8
            assert isinstance(eng, SynchronousGossipEngine)
        finally:
            register_engine("sync", _build_sync, replace=True)


class TestMakeEngine:
    def test_builds_each_engine_with_matching_name(self):
        for name in engine_names():
            eng = make_engine(name, n=12, rng=RngStreams(0))
            assert isinstance(eng, CycleEngine)
            assert eng.name == name

    def test_n_mismatch_rejected(self):
        cfg = GossipTrustConfig(n=10)
        with pytest.raises(ConfigurationError):
            make_engine("sync", cfg, n=20)

    def test_seed_like_rng_accepted(self):
        a = make_engine("sync", n=10, rng=5, epsilon=1e-6)
        b = make_engine("sync", n=10, rng=RngStreams(5), epsilon=1e-6)
        v = np.full(10, 0.1)
        S = np.eye(10)
        assert np.array_equal(a.run_cycle(S, v).v_next, b.run_cycle(S, v).v_next)


class TestConfigEngineField:
    def test_engine_field_validated(self):
        with pytest.raises(ConfigurationError, match="registered"):
            GossipTrustConfig(n=8, engine="bogus")

    def test_engine_field_drives_system(self, random_S):
        cfg = GossipTrustConfig(
            n=random_S.n, engine="structured", delta=1e-3, seed=0
        )
        result = GossipTrust(random_S, cfg).run(raise_on_budget=False)
        assert all(r.mode == "structured" for r in result.cycle_results)

    def test_engine_string_argument_overrides_config(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, seed=0)
        system = GossipTrust(random_S, cfg, engine="structured")
        result = system.run(raise_on_budget=False)
        assert result.cycle_results[0].mode == "structured"


class TestOracleDecoupling:
    def test_skip_reference_makes_zero_oracle_calls(self, random_S, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("oracle called despite compute_reference=False")

        monkeypatch.setattr(
            "repro.core.gossiptrust.exact_global_reputation", boom
        )
        cfg = GossipTrustConfig(n=random_S.n, seed=1)
        result = GossipTrust(random_S, cfg).run(compute_reference=False)
        assert result.converged
        assert result.aggregation_error is None
        assert result.exact_reference is None

    def test_config_default_skips_reference(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, seed=1, compute_reference=False)
        result = GossipTrust(random_S, cfg).run()
        assert result.aggregation_error is None

    def test_reference_on_by_default(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, seed=1)
        result = GossipTrust(random_S, cfg).run()
        assert result.aggregation_error is not None
        assert result.exact_reference is not None
        # Same gossip trajectory either way — the oracle is observational.
        skipped = GossipTrust(random_S, cfg).run(compute_reference=False)
        assert np.array_equal(result.vector, skipped.vector)


class TestTelemetry:
    def test_run_attaches_telemetry(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, seed=2)
        result = GossipTrust(random_S, cfg).run()
        tel = result.telemetry
        assert tel is not None and len(tel) == result.cycles
        assert [r.steps for r in tel] == list(result.steps_per_cycle)
        assert all(r.wall_time >= 0.0 for r in tel)
        assert all(r.mode for r in tel)

    def test_on_cycle_callback_sees_each_record(self, random_S):
        seen = []
        cfg = GossipTrustConfig(n=random_S.n, seed=2)
        GossipTrust(random_S, cfg).run(on_cycle=seen.append)
        assert len(seen) >= 1
        assert all(isinstance(r, CycleRecord) for r in seen)
        assert [r.cycle for r in seen] == list(range(1, len(seen) + 1))

    def test_external_recorder_as_on_cycle(self, random_S):
        recorder = CycleTelemetry()
        cfg = GossipTrustConfig(n=random_S.n, seed=2)
        result = GossipTrust(random_S, cfg).run(telemetry=recorder)
        assert result.telemetry is recorder
        assert len(recorder) == result.cycles

    def test_timed_wraps_any_engine(self, random_S):
        tel = CycleTelemetry()
        eng = make_engine("sync", n=random_S.n, rng=RngStreams(0), epsilon=1e-5)
        res = tel.timed(1, eng, random_S, np.full(random_S.n, 1.0 / random_S.n))
        assert isinstance(res, GossipCycleResult)
        rec = tel.records[0]
        assert rec.cycle == 1 and rec.steps == res.steps
        assert rec.wall_time > 0.0

    def test_summary_and_render(self, random_S):
        tel = CycleTelemetry()
        cfg = GossipTrustConfig(n=random_S.n, seed=3)
        GossipTrust(random_S, cfg).run(telemetry=tel)
        summary = tel.summary()
        assert summary["cycles"] == len(tel)
        assert summary["total_steps"] == sum(r.steps for r in tel)
        line = tel.summary_line()
        assert "cycles" in line and "steps" in line
        rendered = tel.render()
        assert "steps" in rendered
        tel.clear()
        assert len(tel) == 0

    def test_phase_breakdown_recorded_and_summed(self, random_S):
        """Sync cycles carry a phase breakdown; phase_summary totals it."""
        tel = CycleTelemetry()
        cfg = GossipTrustConfig(n=random_S.n, seed=3)
        GossipTrust(random_S, cfg).run(telemetry=tel)
        assert all("kernel" in r.phases for r in tel)
        phases = tel.phase_summary()
        assert set(phases) >= {"setup", "oracle", "kernel"}
        for name, total in phases.items():
            assert total >= 0.0
            assert total == pytest.approx(
                sum(r.phases.get(name, 0.0) for r in tel)
            )
        assert "[phases:" in tel.summary_line()

    def test_phase_summary_empty_without_breakdowns(self):
        tel = CycleTelemetry()
        assert tel.phase_summary() == {}
        assert "[phases:" not in tel.summary_line()


    def test_summary_percentiles_and_rss(self, random_S):
        tel = CycleTelemetry()
        cfg = GossipTrustConfig(n=random_S.n, seed=3)
        GossipTrust(random_S, cfg).run(telemetry=tel)
        summary = tel.summary()
        walls = sorted(r.wall_time for r in tel)
        assert summary["wall_time_max"] == walls[-1]
        assert walls[0] <= summary["wall_time_p50"] <= summary["wall_time_p90"]
        assert summary["wall_time_p90"] <= summary["wall_time_max"]
        # cycles record the recording process's peak RSS (0.0 only where
        # the resource module is unavailable)
        assert summary["peak_rss_kib"] == max(r.peak_rss_kib for r in tel)
        assert all(r.peak_rss_kib >= 0.0 for r in tel)
        line = tel.summary_line()
        assert "p50" in line and "peak rss" in line

    def test_empty_summary_has_percentile_keys(self):
        summary = CycleTelemetry().summary()
        assert summary["wall_time_p50"] == 0.0
        assert summary["wall_time_p90"] == 0.0
        assert summary["wall_time_max"] == 0.0
        assert summary["peak_rss_kib"] == 0.0


class TestConfigKernelFields:
    """config.dtype flows through the factory."""

    def test_factory_forwards_kernel_fields(self):
        cfg = GossipTrustConfig(n=64, kernel="sparse", dtype="float32", seed=0)
        eng = make_engine("sync", cfg, rng=RngStreams(0))
        assert eng.dtype == "float32"

    def test_sparse_config_runs_end_to_end(self, random_S):
        # Naming the one kernel explicitly changes nothing.
        cfg = GossipTrustConfig(
            n=random_S.n, kernel="sparse", engine_mode="probe", seed=2
        )
        base_cfg = GossipTrustConfig(n=random_S.n, engine_mode="probe", seed=2)
        sparse_run = GossipTrust(random_S, cfg).run(compute_reference=False)
        base_run = GossipTrust(random_S, base_cfg).run(compute_reference=False)
        assert sparse_run.converged
        np.testing.assert_array_equal(sparse_run.vector, base_run.vector)
