"""Quality-of-feedback scoring and vote-modulated aggregation."""

import numpy as np
import pytest

from repro.core.config import GossipTrustConfig
from repro.errors import ValidationError
from repro.peers.threat_models import build_independent_scenario
from repro.trust.matrix import TrustMatrix
from repro.trust.qof import QofWeightedAggregation, feedback_quality


@pytest.fixture
def endorse_matrix():
    """4 peers: 0 and 1 endorse the reputable 0/1; 2 endorses distrusted 3."""
    raw = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    return TrustMatrix.from_dense_raw(raw)


class TestFeedbackQuality:
    def test_endorsing_reputable_peers_scores_high(self, endorse_matrix):
        v = np.array([0.4, 0.4, 0.1, 0.1])
        qof = feedback_quality(endorse_matrix, v)
        assert qof[0] == pytest.approx(1.0)  # endorses the top peer
        assert qof[2] < qof[0]  # endorses a distrusted peer

    def test_inverted_rater_scores_lowest(self, endorse_matrix):
        v = np.array([0.45, 0.45, 0.05, 0.05])
        qof = feedback_quality(endorse_matrix, v)
        assert np.argmin(qof) in (2, 3)

    def test_sharpness_widens_separation(self, endorse_matrix):
        v = np.array([0.4, 0.4, 0.1, 0.1])
        soft = feedback_quality(endorse_matrix, v, sharpness=1.0)
        hard = feedback_quality(endorse_matrix, v, sharpness=3.0)
        assert (soft[0] - soft[2]) < (hard[0] - hard[2])

    def test_scores_in_unit_interval(self, random_S, rng):
        v = rng.random(random_S.n)
        v /= v.sum()
        qof = feedback_quality(random_S, v)
        assert np.all(qof >= 0) and np.all(qof <= 1)
        assert qof.max() == pytest.approx(1.0)

    def test_degenerate_zero_reputation(self, endorse_matrix):
        qof = feedback_quality(endorse_matrix, np.zeros(4))
        assert np.all(qof == 1.0)

    def test_validation(self, endorse_matrix):
        with pytest.raises(ValidationError):
            feedback_quality(endorse_matrix, np.ones(3))
        with pytest.raises(ValidationError):
            feedback_quality(endorse_matrix, np.ones(4) / 4, sharpness=-1.0)

    def test_discriminates_attackers_under_clean_consensus(self):
        from repro.core.aggregation import exact_global_reputation

        sc = build_independent_scenario(200, 0.3, rng=0)
        cfg = GossipTrustConfig(n=200, alpha=0.0, max_cycles=60)
        v_true = exact_global_reputation(sc.S_true, cfg, raise_on_budget=False).vector
        qof = feedback_quality(sc.S_attacked, v_true)
        good = sc.population.honest_nodes()
        bad = sc.population.malicious_nodes()
        assert qof[good].mean() > qof[bad].mean()


class TestQofWeightedAggregation:
    def test_returns_probability_vector_and_trajectory(self, random_S):
        cfg = GossipTrustConfig(n=random_S.n, alpha=0.0)
        res = QofWeightedAggregation(cfg, rounds=2).run(random_S)
        assert res.reputation.sum() == pytest.approx(1.0)
        assert len(res.trajectory) == 3  # round 0 + 2 refinements
        assert res.rounds == 2

    def test_honest_matrix_barely_changes(self, random_S):
        """With no attack the weighting must not distort the ranking."""
        from repro.metrics.errors import kendall_tau

        cfg = GossipTrustConfig(n=random_S.n, alpha=0.0)
        res = QofWeightedAggregation(cfg, rounds=2).run(random_S)
        assert kendall_tau(res.trajectory[0], res.reputation) > 0.7

    def test_reduces_error_under_heavy_attack(self):
        from repro.core.aggregation import exact_global_reputation
        from repro.metrics.errors import rms_relative_error

        n = 300
        plain_vals, qof_vals = [], []
        for seed in range(2):
            sc = build_independent_scenario(n, 0.4, rng=seed)
            cfg = GossipTrustConfig(n=n, alpha=0.0, max_cycles=80, seed=seed)
            v = exact_global_reputation(sc.S_true, cfg, raise_on_budget=False).vector
            u = exact_global_reputation(
                sc.S_attacked, cfg, raise_on_budget=False
            ).vector
            res = QofWeightedAggregation(cfg, rounds=3).run(sc.S_attacked)
            plain_vals.append(rms_relative_error(v, u, cap=10.0))
            qof_vals.append(rms_relative_error(v, res.reputation, cap=10.0))
        assert np.mean(qof_vals) < np.mean(plain_vals)

    def test_validation(self):
        with pytest.raises(ValidationError):
            QofWeightedAggregation(rounds=0)
