"""Exact aggregation: fixed points, power-node mixing, bounds."""

import numpy as np
import pytest

from repro.baselines.centralized import CentralizedEigenvector
from repro.core.aggregation import exact_global_reputation
from repro.core.config import GossipTrustConfig
from repro.errors import ConvergenceError


class TestAlphaZero:
    def test_converges_to_principal_eigenvector(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, alpha=0.0, delta=1e-8)
        res = exact_global_reputation(random_S, cfg)
        oracle = CentralizedEigenvector(random_S).compute()
        assert res.converged
        assert np.allclose(res.vector, oracle, atol=1e-5)

    def test_vector_is_probability_distribution(self, random_S):
        res = exact_global_reputation(
            random_S, GossipTrustConfig(n=random_S.n, alpha=0.0)
        )
        assert res.vector.sum() == pytest.approx(1.0)
        assert np.all(res.vector >= -1e-15)


class TestAlphaMixing:
    def test_power_nodes_fixed_during_run_reported_for_next(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, alpha=0.15)
        first = exact_global_reputation(random_S, cfg)
        assert len(first.power_nodes) == cfg.max_power_nodes
        # The reported set is the top of the converged vector.
        expected = set(np.argsort(-first.vector)[: cfg.max_power_nodes].tolist())
        assert set(first.power_nodes) <= expected | set(first.power_nodes)

    def test_carrying_power_nodes_shifts_mass_toward_them(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, alpha=0.3)
        plain = exact_global_reputation(random_S, cfg.with_updates(alpha=0.0))
        power = frozenset({0, 1})
        mixed = exact_global_reputation(random_S, cfg, power_nodes=power)
        share_plain = plain.vector[[0, 1]].sum()
        share_mixed = mixed.vector[[0, 1]].sum()
        assert share_mixed > share_plain

    def test_uniform_mixing_when_no_power_nodes(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, alpha=0.15)
        res = exact_global_reputation(random_S, cfg, power_nodes=frozenset())
        # Fixed point of (1-a) S^T v + a/n; verify residual directly.
        v = res.vector
        expected = 0.85 * random_S.aggregate(v) + 0.15 / random_S.n
        assert np.allclose(v, expected, atol=1e-3)


class TestControl:
    def test_tighter_delta_needs_more_cycles(self, random_S):
        loose = exact_global_reputation(
            random_S, GossipTrustConfig(n=random_S.n, delta=1e-2)
        )
        tight = exact_global_reputation(
            random_S, GossipTrustConfig(n=random_S.n, delta=1e-8)
        )
        assert tight.cycles > loose.cycles

    def test_budget_raises_or_soft_returns(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, delta=1e-12, max_cycles=2)
        with pytest.raises(ConvergenceError):
            exact_global_reputation(random_S, cfg)
        res = exact_global_reputation(random_S, cfg, raise_on_budget=False)
        assert not res.converged
        assert res.cycles == 2

    def test_config_n_mismatch_is_reconciled(self, random_S):
        cfg = GossipTrustConfig(n=999)
        res = exact_global_reputation(random_S, cfg)
        assert res.vector.shape == (random_S.n,)

    def test_accepts_dense_input(self, random_S):
        res = exact_global_reputation(
            random_S.dense(), GossipTrustConfig(n=random_S.n)
        )
        assert res.converged
