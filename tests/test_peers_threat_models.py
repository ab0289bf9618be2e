"""Threat scenarios: matched matrices, attack signatures."""

import numpy as np
import pytest

from repro.core.aggregation import exact_global_reputation
from repro.core.config import GossipTrustConfig
from repro.errors import ValidationError
from repro.peers import threat_models
from repro.peers.threat_models import (
    build_collusive_scenario,
    build_independent_scenario,
)


class TestIndependent:
    def test_no_malicious_means_identical_matrices(self):
        sc = build_independent_scenario(80, 0.0, rng=0)
        assert np.allclose(sc.S_true.dense(), sc.S_attacked.dense())

    def test_matrices_are_stochastic(self):
        sc = build_independent_scenario(80, 0.3, rng=1)
        for M in (sc.S_true, sc.S_attacked):
            assert np.allclose(M.dense().sum(axis=1), 1.0)

    def test_attack_changes_matrix(self):
        sc = build_independent_scenario(80, 0.3, rng=2)
        assert not np.allclose(sc.S_true.dense(), sc.S_attacked.dense())

    def test_attack_inflates_malicious_reputation(self):
        sc = build_independent_scenario(150, 0.2, rng=3)
        cfg = GossipTrustConfig(n=150, alpha=0.15)
        v = exact_global_reputation(sc.S_true, cfg, raise_on_budget=False).vector
        u = exact_global_reputation(sc.S_attacked, cfg, raise_on_budget=False).vector
        bad = sc.population.malicious_nodes()
        # Dishonest feedback boosts the attackers' own aggregate share.
        assert u[bad].sum() > v[bad].sum()

    def test_transactions_counted(self):
        sc = build_independent_scenario(50, 0.1, rng=4)
        assert sc.transactions > 0
        assert sc.n == 50

    def test_deterministic(self):
        a = build_independent_scenario(60, 0.2, rng=5)
        b = build_independent_scenario(60, 0.2, rng=5)
        assert np.allclose(a.S_attacked.dense(), b.S_attacked.dense())


class TestCollusive:
    def test_group_structure(self):
        sc = build_collusive_scenario(100, 0.1, group_size=5, rng=0)
        assert sc.population.group_count() == 2

    def test_colluders_gain_from_boosting(self):
        sc = build_collusive_scenario(150, 0.1, group_size=5, rng=1)
        cfg = GossipTrustConfig(n=150, alpha=0.15)
        v = exact_global_reputation(sc.S_true, cfg, raise_on_budget=False).vector
        u = exact_global_reputation(sc.S_attacked, cfg, raise_on_budget=False).vector
        bad = sc.population.malicious_nodes()
        assert u[bad].sum() > 2 * v[bad].sum()

    def test_boost_volume_scales_with_parameter(self, monkeypatch):
        monkeypatch.setattr(threat_models, "_COLLUSION_BOOST", 1)
        lo = build_collusive_scenario(80, 0.1, group_size=4, rng=2)
        monkeypatch.setattr(threat_models, "_COLLUSION_BOOST", 8)
        hi = build_collusive_scenario(80, 0.1, group_size=4, rng=2)
        assert hi.transactions > lo.transactions

    def test_rejects_tiny_group(self):
        with pytest.raises(ValidationError):
            build_collusive_scenario(50, 0.1, group_size=1)
