"""Theoretical cycle bound."""

import numpy as np
import pytest

from repro.core.aggregation import exact_global_reputation
from repro.core.config import GossipTrustConfig
from repro.errors import ValidationError
from repro.metrics.convergence import theoretical_cycle_bound
from repro.trust.matrix import TrustMatrix


class TestCycleBound:
    def test_bound_dominates_measured_cycles(self, random_S):
        # d <= ceil(log_b delta); verify against an actual alpha=0 run.
        delta = 1e-4
        bound = theoretical_cycle_bound(random_S, delta, alpha=0.0)
        cfg = GossipTrustConfig(n=random_S.n, alpha=0.0, delta=delta)
        res = exact_global_reputation(random_S, cfg, raise_on_budget=False)
        assert res.cycles <= bound + 2  # +2: bound is on eigen-gap decay

    def test_smaller_delta_larger_bound(self, random_S):
        assert theoretical_cycle_bound(random_S, 1e-6, alpha=0.15) > theoretical_cycle_bound(
            random_S, 1e-2, alpha=0.15
        )

    def test_greedy_factor_tightens_bound(self, random_S):
        plain = theoretical_cycle_bound(random_S, 1e-4, alpha=0.0)
        greedy = theoretical_cycle_bound(random_S, 1e-4, alpha=0.15)
        assert greedy < plain

    def test_degenerate_gap_sentinel(self):
        # Periodic 2-cycle chain: |lambda_2| == lambda_1 == 1.
        S = TrustMatrix.from_dense_raw(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert theoretical_cycle_bound(S, 1e-3, alpha=0.0) == 10_000
        # Any greedy factor damps the periodic mode, so the bound is finite.
        assert theoretical_cycle_bound(S, 1e-3, alpha=0.15) == 43

    def test_delta_validation(self, random_S):
        with pytest.raises(ValidationError):
            theoretical_cycle_bound(random_S, 0.0, alpha=0.15)

    def test_alpha_validation(self, random_S):
        with pytest.raises(ValidationError):
            theoretical_cycle_bound(random_S, 1e-3, alpha=1.0)
