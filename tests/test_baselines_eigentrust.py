"""EigenTrust baselines: fixed points and DHT overhead accounting."""

import numpy as np
import pytest

from repro.baselines import eigentrust
from repro.baselines.centralized import CentralizedEigenvector
from repro.baselines.eigentrust import DistributedEigenTrust, EigenTrust
from repro.errors import ValidationError


class TestBasicEigenTrust:
    def test_a_zero_limit_matches_eigenvector(self, random_S):
        res = EigenTrust(random_S, a=1e-12).compute()
        oracle = CentralizedEigenvector(random_S).compute()
        assert np.allclose(res.vector, oracle, atol=1e-6)

    def test_pretrust_mixing_fixed_point(self, random_S, monkeypatch):
        pre = [0, 1]
        monkeypatch.setattr(eigentrust, "_PRETRUSTED", tuple(pre))
        res = EigenTrust(random_S, a=0.2).compute()
        v = res.vector
        P = np.zeros(random_S.n)
        P[pre] = 0.5
        expected = 0.8 * random_S.aggregate(v) + 0.2 * P
        assert np.allclose(v, expected, atol=1e-8)

    def test_pretrusted_peers_gain_score(self, random_S, monkeypatch):
        plain = EigenTrust(random_S, a=1e-12).compute().vector
        monkeypatch.setattr(eigentrust, "_PRETRUSTED", (3,))
        boosted = EigenTrust(random_S, a=0.3).compute().vector
        assert boosted[3] > plain[3]

    def test_converged_flag_and_iterations(self, random_S):
        res = EigenTrust(random_S).compute()
        assert res.converged
        assert res.iterations > 1

    def test_rejects_a_out_of_range(self, random_S):
        with pytest.raises(ValidationError):
            EigenTrust(random_S, a=1.0)


class TestDistributedEigenTrust:
    def test_same_fixed_point_as_basic(self, random_S, monkeypatch):
        monkeypatch.setattr(eigentrust, "_PRETRUSTED", (0,))
        basic = EigenTrust(random_S, a=0.1).compute()
        dist = DistributedEigenTrust(random_S, a=0.1, replicas=2).compute()
        assert np.allclose(basic.vector, dist.vector)

    def test_overhead_accounting_positive(self, random_S):
        res = DistributedEigenTrust(random_S, replicas=3).compute()
        assert res.dht_lookups == random_S.nnz * 3
        assert res.dht_hops > 0
        assert res.messages == random_S.nnz * 3 * res.iterations

    def test_more_replicas_more_overhead(self, random_S):
        one = DistributedEigenTrust(random_S, replicas=1).compute()
        three = DistributedEigenTrust(random_S, replicas=3).compute()
        assert three.dht_lookups == 3 * one.dht_lookups

    def test_rejects_bad_replicas(self, random_S):
        with pytest.raises(ValidationError):
            DistributedEigenTrust(random_S, replicas=0)
