"""Structured (DHT-ordered) all-reduce aggregation."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.structured import StructuredAggregationEngine


class TestExactness:
    @pytest.mark.parametrize("n", [2, 3, 16, 37, 100, 128])
    def test_exact_at_any_size(self, n, rng):
        raw = rng.random((n, n))
        np.fill_diagonal(raw, 0)
        from repro.trust.matrix import TrustMatrix

        S = TrustMatrix.from_dense_raw(raw)
        engine = StructuredAggregationEngine(n)
        v = rng.random(n)
        v /= v.sum()
        res = engine.run_cycle(S, v)
        assert np.allclose(res.v_next, res.exact)
        assert res.node_disagreement < 1e-12
        assert res.gossip_error == 0.0
        assert res.converged

    def test_rounds_are_log2_n(self):
        for n in (16, 100, 1000):
            engine = StructuredAggregationEngine(n)
            assert engine.rounds_per_cycle == math.ceil(math.log2(n))

    def test_messages_accounted(self, random_S):
        engine = StructuredAggregationEngine(random_S.n)
        v = np.full(random_S.n, 1.0 / random_S.n)
        engine.run_cycle(random_S, v)
        assert engine.messages == random_S.n * engine.rounds_per_cycle

    def test_faster_than_unstructured(self, random_S):
        n = random_S.n
        v = np.full(n, 1.0 / n)
        structured = StructuredAggregationEngine(n)
        s_res = structured.run_cycle(random_S, v)
        gossip = SynchronousGossipEngine(n, epsilon=1e-4, mode="full", rng=0)
        g_res = gossip.run_cycle(random_S, v)
        assert s_res.steps < g_res.steps

    def test_matches_unstructured_target(self, random_S):
        v = np.full(random_S.n, 1.0 / random_S.n)
        s_res = StructuredAggregationEngine(random_S.n).run_cycle(random_S, v)
        g_res = SynchronousGossipEngine(
            random_S.n, epsilon=1e-7, mode="full", rng=1
        ).run_cycle(random_S, v)
        assert np.allclose(s_res.v_next, g_res.v_next, rtol=1e-3, atol=1e-8)


class TestValidation:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValidationError):
            StructuredAggregationEngine(1)

    def test_rejects_shape_mismatch(self, random_S):
        engine = StructuredAggregationEngine(random_S.n + 1)
        with pytest.raises(ValidationError):
            engine.run_cycle(random_S, np.full(random_S.n + 1, 0.1))

    def test_plugs_into_gossiptrust(self, random_S):
        """The structured engine satisfies the CycleEngine protocol."""
        from repro.core.config import GossipTrustConfig
        from repro.core.gossiptrust import GossipTrust

        cfg = GossipTrustConfig(n=random_S.n, alpha=0.15, seed=0)
        system = GossipTrust(
            random_S, cfg, engine=StructuredAggregationEngine(random_S.n)
        )
        result = system.run()
        assert result.converged
        assert result.cycle_results[0].mode == "structured"
        # Exact per-cycle products: aggregation error is pure float noise.
        assert result.aggregation_error < 1e-9
