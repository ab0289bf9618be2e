"""Synchronous vectorized gossip engine: accuracy, modes, convergence."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ValidationError
from repro.gossip.engine import SynchronousGossipEngine


class TestFullMode:
    def test_cycle_estimates_exact_product(self, random_S):
        n = random_S.n
        engine = SynchronousGossipEngine(n, epsilon=1e-6, mode="full", rng=0)
        v = np.full(n, 1.0 / n)
        res = engine.run_cycle(random_S, v)
        assert res.converged
        assert res.mode == "full"
        exact = random_S.dense().T @ v
        assert np.allclose(res.v_next, exact, rtol=1e-3)
        assert res.gossip_error < 1e-3

    def test_tighter_epsilon_costs_more_steps(self, random_S):
        v = np.full(random_S.n, 1.0 / random_S.n)
        steps = {}
        for eps in (1e-2, 1e-6):
            engine = SynchronousGossipEngine(
                random_S.n, epsilon=eps, mode="full", rng=1
            )
            steps[eps] = engine.run_cycle(random_S, v).steps
        assert steps[1e-6] > steps[1e-2]

    def test_node_disagreement_small_after_convergence(self, random_S):
        engine = SynchronousGossipEngine(random_S.n, epsilon=1e-8, mode="full", rng=2)
        v = np.full(random_S.n, 1.0 / random_S.n)
        res = engine.run_cycle(random_S, v)
        assert res.node_disagreement < 1e-5


class TestProbeMode:
    def test_probe_returns_exact_vector_with_error_sample(self, random_S, monkeypatch):
        n = random_S.n
        monkeypatch.setattr(SynchronousGossipEngine, "probe_columns", 8)
        engine = SynchronousGossipEngine(n, epsilon=1e-5, mode="probe", rng=4)
        v = np.full(n, 1.0 / n)
        res = engine.run_cycle(random_S, v)
        assert res.mode == "probe"
        assert np.allclose(res.v_next, res.exact)
        assert res.gossip_error >= 0.0

    def test_probe_step_counts_match_full_roughly(self, random_S, monkeypatch):
        n = random_S.n
        v = np.full(n, 1.0 / n)
        monkeypatch.setattr(SynchronousGossipEngine, "probe_columns", 8)
        full = SynchronousGossipEngine(n, epsilon=1e-5, mode="full", rng=5)
        probe = SynchronousGossipEngine(n, epsilon=1e-5, mode="probe", rng=5)
        sf = full.run_cycle(random_S, v).steps
        sp = probe.run_cycle(random_S, v).steps
        assert abs(sf - sp) <= max(5, 0.4 * sf)

    def test_auto_mode_picks_by_size(self):
        small = SynchronousGossipEngine(100, mode="auto")
        large = SynchronousGossipEngine(2000, mode="auto")
        assert small.mode == "full"
        assert large.mode == "probe"


class TestValidationAndBudget:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValidationError):
            SynchronousGossipEngine(1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            SynchronousGossipEngine(10, mode="warp")

    def test_rejects_shape_mismatch(self, random_S):
        engine = SynchronousGossipEngine(random_S.n + 1)
        with pytest.raises(ValidationError):
            engine.run_cycle(random_S, np.full(random_S.n + 1, 0.1))

    def test_budget_raises(self, random_S):
        engine = SynchronousGossipEngine(
            random_S.n, epsilon=1e-12, mode="full", max_steps=2, rng=0
        )
        v = np.full(random_S.n, 1.0 / random_S.n)
        with pytest.raises(ConvergenceError):
            engine.run_cycle(random_S, v)

    def test_accepts_dense_and_sparse_matrices(self, random_S):
        engine = SynchronousGossipEngine(random_S.n, mode="full", rng=6)
        v = np.full(random_S.n, 1.0 / random_S.n)
        r1 = engine.run_cycle(random_S.dense(), v)
        r2 = engine.run_cycle(random_S.sparse(), v)
        assert np.allclose(r1.exact, r2.exact)


class TestProbeColumnSelection:
    def test_top_mass_column_always_retained(self, monkeypatch):
        # Regression: the old np.unique(...)[:p] truncation kept the p
        # *smallest* indices, silently dropping the guaranteed top-mass
        # column whenever its index was large.
        n, p = 100, 5
        monkeypatch.setattr(SynchronousGossipEngine, "probe_columns", p)
        for seed in range(20):
            engine = SynchronousGossipEngine(n, mode="probe", rng=seed)
            exact = np.zeros(n)
            exact[n - 1] = 1.0  # heaviest column has the largest index
            cols = engine._pick_probe_columns(np.full(n, 1.0 / n), exact)
            assert n - 1 in cols
            assert cols.size == p
            assert np.array_equal(cols, np.unique(cols))  # sorted, unique

    def test_probe_count_caps_at_n(self):
        assert SynchronousGossipEngine.probe_columns == 64
        engine = SynchronousGossipEngine(10, mode="probe", rng=0)
        cols = engine._pick_probe_columns(np.full(10, 0.1), np.arange(10.0))
        assert np.array_equal(cols, np.arange(10))

    def test_probe_cycle_error_sample_covers_top_column(self, random_S, monkeypatch):
        n = random_S.n
        monkeypatch.setattr(SynchronousGossipEngine, "probe_columns", 4)
        engine = SynchronousGossipEngine(n, epsilon=1e-5, mode="probe", rng=11)
        v = np.full(n, 1.0 / n)
        res = engine.run_cycle(random_S, v)
        assert res.converged
        assert np.isfinite(res.gossip_error)


class TestDeterminism:
    def test_same_seed_same_result(self, random_S):
        v = np.full(random_S.n, 1.0 / random_S.n)
        a = SynchronousGossipEngine(random_S.n, mode="full", rng=9).run_cycle(random_S, v)
        b = SynchronousGossipEngine(random_S.n, mode="full", rng=9).run_cycle(random_S, v)
        assert np.array_equal(a.v_next, b.v_next)
        assert a.steps == b.steps
