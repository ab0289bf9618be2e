"""File-sharing simulation: success accounting, refresh, policies."""

import numpy as np
import pytest

from repro.baselines.notrust import NoTrustSelector, ReputationSelector
from repro.core.config import GossipTrustConfig
from repro.errors import ValidationError
from repro.peers.behavior import PeerPopulation
from repro.workload.files import FileCatalog
from repro.workload.filesharing import FileSharingSimulation


def make_sim(n=60, gamma=0.2, policy=None, **kwargs):
    pop = PeerPopulation.build(n, malicious_fraction=gamma, rng=0)
    cat = FileCatalog(800, n, rng=1)
    if policy is None:
        policy = ReputationSelector(n, rng=2)
    cfg = GossipTrustConfig(n=n, engine_mode="probe", seed=3)
    return FileSharingSimulation(
        pop, cat, policy, refresh_interval=200, config=cfg, rng=4, **kwargs
    ), pop


class TestRun:
    def test_success_rate_bounds_and_accounting(self):
        sim, _pop = make_sim()
        res = sim.run(600)
        assert 0.0 <= res.success_rate <= 1.0
        assert res.queries == 600
        assert res.refreshes == 3
        assert len(res.window_success) == 3

    def test_all_honest_high_success(self):
        sim, _pop = make_sim(gamma=0.0)
        res = sim.run(400)
        assert res.success_rate > 0.85

    def test_reputation_beats_notrust_under_attack(self):
        gt_sim, _ = make_sim(gamma=0.3)
        gt = gt_sim.run(1500)
        nt_sim, _ = make_sim(gamma=0.3, policy=NoTrustSelector(rng=2), use_gossip=False)
        nt = nt_sim.run(1500)
        assert gt.steady_state_success > nt.steady_state_success

    def test_gossip_steps_accounted_when_gossiping(self):
        sim, _pop = make_sim()
        res = sim.run(400)
        assert res.gossip_steps > 0

    def test_exact_refresh_mode(self):
        sim, _pop = make_sim(use_gossip=False)
        res = sim.run(400)
        assert res.gossip_steps == 0
        assert res.refreshes == 2

    def test_reputation_updates_policy_scores(self):
        policy = ReputationSelector(60, rng=2)
        sim, _pop = make_sim(policy=policy)
        before = policy.scores
        sim.run(400)
        assert not np.allclose(before, policy.scores)

    def test_ledger_accumulates(self):
        sim, _pop = make_sim()
        sim.run(300)
        assert sim.ledger.transactions > 0

    def test_trailing_partial_window_reported(self):
        sim, _pop = make_sim()
        res = sim.run(250)  # one refresh at 200, partial window of 50
        assert len(res.window_success) == 2

    def test_reputation_model_rates(self):
        sim, _pop = make_sim(inauthentic_model="reputation")
        res = sim.run(400)
        assert 0.0 <= res.success_rate <= 1.0


class TestValidation:
    def test_catalog_population_mismatch(self):
        pop = PeerPopulation.build(10, rng=0)
        cat = FileCatalog(100, 20, rng=1)
        with pytest.raises(ValidationError):
            FileSharingSimulation(pop, cat, NoTrustSelector())

    def test_bad_refresh_interval(self):
        pop = PeerPopulation.build(10, rng=0)
        cat = FileCatalog(100, 10, rng=1)
        with pytest.raises(ValidationError):
            FileSharingSimulation(pop, cat, NoTrustSelector(), refresh_interval=0)

    def test_bad_model_name(self):
        pop = PeerPopulation.build(10, rng=0)
        cat = FileCatalog(100, 10, rng=1)
        with pytest.raises(ValidationError):
            FileSharingSimulation(
                pop, cat, NoTrustSelector(), inauthentic_model="vibes"
            )

    def test_bad_query_count(self):
        sim, _pop = make_sim()
        with pytest.raises(ValidationError):
            sim.run(0)
