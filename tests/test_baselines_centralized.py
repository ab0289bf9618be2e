"""Centralized eigenvector oracle: two methods, one answer."""

import numpy as np
import pytest

from repro.baselines import centralized
from repro.baselines.centralized import CentralizedEigenvector
from repro.errors import ConvergenceError, ValidationError


class TestPowerIteration:
    def test_stationary_distribution_of_known_chain(self):
        # Two-state chain: P(0->1)=1, P(1->0)=0.5, P(1->1)=0.5.
        S = np.array([[0.0, 1.0], [0.5, 0.5]])
        v = CentralizedEigenvector(S).compute()
        # Stationary: pi = (1/3, 2/3).
        assert v.tolist() == pytest.approx([1 / 3, 2 / 3], rel=1e-6)

    def test_uniform_chain_uniform_stationary(self):
        n = 5
        S = np.full((n, n), 1.0 / n)
        v = CentralizedEigenvector(S).compute()
        assert np.allclose(v, 1.0 / n)

    def test_result_is_probability_vector(self, random_S):
        v = CentralizedEigenvector(random_S).compute()
        assert v.sum() == pytest.approx(1.0)
        assert np.all(v >= -1e-12)

    def test_fixed_point_property(self, random_S):
        v = CentralizedEigenvector(random_S).compute()
        assert np.allclose(random_S.aggregate(v), v, atol=1e-9)

    def test_iteration_metadata(self, random_S):
        res = CentralizedEigenvector(random_S).power_iteration()
        assert res.iterations > 0
        assert res.residual < 1e-12

    def test_budget_exhaustion(self, random_S, monkeypatch):
        monkeypatch.setattr(centralized, "_TOL", 1e-15)
        monkeypatch.setattr(centralized, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError):
            CentralizedEigenvector(random_S).power_iteration()


class TestCrossCheck:
    def test_arpack_agrees_with_power_iteration(self, random_S):
        v = CentralizedEigenvector(random_S).compute(cross_check=True)
        assert v.sum() == pytest.approx(1.0)

    def test_arpack_small_dense_path(self):
        S = np.array([[0.0, 1.0], [0.5, 0.5]])
        v = CentralizedEigenvector(S).arpack()
        assert v.tolist() == pytest.approx([1 / 3, 2 / 3], rel=1e-6)

    def test_arpack_large_sparse_path(self, rng):
        n = 40
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        np.fill_diagonal(raw, 0)
        for i in range(n):
            if raw[i].sum() == 0:
                raw[i, (i + 1) % n] = 1
        from repro.trust.matrix import TrustMatrix

        S = TrustMatrix.from_dense_raw(raw)
        pi = CentralizedEigenvector(S).power_iteration().vector
        ar = CentralizedEigenvector(S).arpack()
        assert np.allclose(pi, ar, atol=1e-6)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            CentralizedEigenvector(np.ones((2, 3)))
