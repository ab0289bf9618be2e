"""Peer populations and the dishonesty rules."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.peers import behavior
from repro.peers.behavior import (
    PeerPopulation,
    rate_transaction,
    reputation_inverse_rate,
)
from repro.types import PeerClass, TransactionOutcome


class TestBuild:
    def test_all_honest_by_default(self):
        pop = PeerPopulation.build(50, rng=0)
        assert pop.malicious_nodes().size == 0
        assert np.all(pop.quality == 0.95)

    def test_malicious_fraction_realized(self):
        pop = PeerPopulation.build(200, malicious_fraction=0.2, rng=1)
        assert pop.malicious_nodes().size == 40
        assert pop.honest_nodes().size == 160

    def test_independent_class_assignment(self):
        pop = PeerPopulation.build(100, malicious_fraction=0.1, rng=2)
        for node in pop.malicious_nodes():
            assert pop.classes[node] is PeerClass.MALICIOUS_INDEPENDENT
            assert pop.group[node] == -1

    def test_collusive_groups_partitioned(self):
        pop = PeerPopulation.build(
            100, malicious_fraction=0.12, collusive=True, group_size=4, rng=3
        )
        assert pop.group_count() == 3  # 12 colluders / 4 per group
        for g in range(3):
            assert (pop.group == g).sum() == 4

    def test_last_group_may_be_smaller(self):
        pop = PeerPopulation.build(
            100, malicious_fraction=0.10, collusive=True, group_size=4, rng=4
        )
        sizes = [(pop.group == g).sum() for g in range(pop.group_count())]
        assert sorted(sizes) == [2, 4, 4]

    def test_quality_assignment(self, monkeypatch):
        monkeypatch.setattr(behavior, "HONEST_QUALITY", 0.9)
        monkeypatch.setattr(behavior, "MALICIOUS_QUALITY", 0.1)
        pop = PeerPopulation.build(100, malicious_fraction=0.3, rng=5)
        assert np.all(pop.quality[pop.malicious_nodes()] == 0.1)
        assert np.all(pop.quality[pop.honest_nodes()] == 0.9)

    def test_collusive_requires_group_size(self):
        with pytest.raises(ValidationError):
            PeerPopulation.build(10, malicious_fraction=0.5, collusive=True)

    def test_deterministic(self):
        a = PeerPopulation.build(60, malicious_fraction=0.25, rng=7)
        b = PeerPopulation.build(60, malicious_fraction=0.25, rng=7)
        assert np.array_equal(a.malicious_mask(), b.malicious_mask())


class TestServe:
    def test_outcomes_follow_quality(self, rng):
        pop = PeerPopulation.build(2, rng=0)
        pop.quality[0] = 1.0
        pop.quality[1] = 0.0
        assert pop.serve(0, rng) is TransactionOutcome.AUTHENTIC
        assert pop.serve(1, rng) is TransactionOutcome.INAUTHENTIC

    def test_statistical_quality(self, rng, monkeypatch):
        monkeypatch.setattr(behavior, "HONEST_QUALITY", 0.7)
        pop = PeerPopulation.build(1, rng=0)
        hits = sum(
            pop.serve(0, rng) is TransactionOutcome.AUTHENTIC for _ in range(5000)
        )
        assert hits / 5000 == pytest.approx(0.7, abs=0.03)


class TestRating:
    def test_honest_reports_truth(self):
        pop = PeerPopulation.build(4, rng=0)
        for outcome in (TransactionOutcome.AUTHENTIC, TransactionOutcome.INAUTHENTIC):
            assert rate_transaction(pop, 0, 1, outcome) is outcome

    def test_independent_inverts(self):
        pop = PeerPopulation.build(4, malicious_fraction=1.0, rng=1)
        assert (
            rate_transaction(pop, 0, 1, TransactionOutcome.AUTHENTIC)
            is TransactionOutcome.INAUTHENTIC
        )
        assert (
            rate_transaction(pop, 0, 1, TransactionOutcome.INAUTHENTIC)
            is TransactionOutcome.AUTHENTIC
        )

    def test_collusive_boosts_group_trashes_outside(self):
        pop = PeerPopulation.build(
            10, malicious_fraction=0.4, collusive=True, group_size=2, rng=2
        )
        bad = pop.malicious_nodes()
        a = int(bad[0])
        mate = next(int(b) for b in bad[1:] if pop.same_group(a, int(b)))
        honest = int(pop.honest_nodes()[0])
        assert (
            rate_transaction(pop, a, mate, TransactionOutcome.INAUTHENTIC)
            is TransactionOutcome.AUTHENTIC
        )
        assert (
            rate_transaction(pop, a, honest, TransactionOutcome.AUTHENTIC)
            is TransactionOutcome.INAUTHENTIC
        )


class TestReputationInverseRate:
    def test_uniform_reputation_gives_base_rate(self):
        rate = reputation_inverse_rate(np.full(10, 0.1))
        assert np.allclose(rate, 0.05)

    def test_inversely_proportional(self, monkeypatch):
        monkeypatch.setattr(behavior, "_BASE_RATE", 0.08)
        v = np.array([0.4, 0.2, 0.2, 0.2])
        rate = reputation_inverse_rate(v)
        assert rate[1] == pytest.approx(2 * rate[0])

    def test_zero_reputation_capped(self, monkeypatch):
        monkeypatch.setattr(behavior, "_RATE_CAP", 0.9)
        rate = reputation_inverse_rate(np.array([0.5, 0.0]))
        assert rate[1] == 0.9

    def test_cap_applies(self, monkeypatch):
        monkeypatch.setattr(behavior, "_BASE_RATE", 0.5)
        rate = reputation_inverse_rate(np.array([1e-9, 1.0]))
        assert rate[0] == 0.95

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            reputation_inverse_rate(np.ones((2, 2)))
