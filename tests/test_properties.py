"""Property-based tests (hypothesis) on the core invariants.

The paper's correctness rests on a handful of algebraic laws; these are
checked on generated instances rather than examples:

* push-sum conserves total (x, w) mass under *any* partner assignment;
* push-sum converges to the true weighted sum on random instances;
* Eq. 1 normalization always yields a row-stochastic matrix, and
  ``S^T v`` preserves probability mass;
* Bloom filters never produce false negatives;
* Chord lookup always reaches the key's true successor;
* distribution samplers stay within their declared supports.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributions import query
from repro.distributions.powerlaw import BoundedZipf
from repro.distributions.query import TwoSegmentZipf
from repro.gossip.convergence import average_relative_error
from repro.gossip.pushsum import push_sum_step
from tests.triplet_oracle import NodeVector
from repro.network.dht import ChordRing
from repro.storage import reputation_store
from repro.storage.bloom import BloomFilter
from repro.trust.matrix import TrustMatrix

COMMON = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def masses(n):
    return hnp.arrays(
        np.float64,
        n,
        elements=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    )


class TestPushSumProperties:
    @COMMON
    @given(data=st.data(), n=st.integers(2, 40))
    def test_mass_conservation_any_partner_assignment(self, data, n):
        x = data.draw(masses(n))
        w = data.draw(masses(n))
        ids = np.arange(n)
        targets = data.draw(
            hnp.arrays(np.int64, n, elements=st.integers(0, n - 1)).filter(
                lambda t: not np.any(t == ids)
            )
        )
        x2, w2 = push_sum_step(x, w, targets)
        assert x2.sum() == pytest.approx(x.sum(), rel=1e-12, abs=1e-12)
        assert w2.sum() == pytest.approx(w.sum(), rel=1e-12, abs=1e-12)
        assert np.all(x2 >= 0) and np.all(w2 >= 0)

    @COMMON
    @given(data=st.data(), n=st.integers(2, 24), seed=st.integers(0, 2**16))
    def test_converges_to_true_weighted_sum(self, data, n, seed):
        x = data.draw(masses(n))
        w = np.zeros(n)
        w[data.draw(st.integers(0, n - 1))] = 1.0
        truth = x.sum()
        # Uniform random partners, never self, as in Algorithm 1.
        gen = np.random.default_rng(seed)
        ids = np.arange(n)
        for _ in range(400):
            targets = gen.integers(0, n - 1, size=n)
            targets[targets >= ids] += 1
            x, w = push_sum_step(x, w, targets)
        with np.errstate(divide="ignore", invalid="ignore"):
            estimates = x / w
        finite = estimates[np.isfinite(estimates)]
        assert finite.size > 0
        assert np.allclose(finite, truth, rtol=1e-4, atol=1e-9)


class TestTripletVectorProperties:
    @COMMON
    @given(
        scores=st.dictionaries(
            st.integers(0, 30), st.floats(0.0, 1.0, allow_nan=False), max_size=10
        ),
        prior=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_halve_merge_identity(self, scores, prior):
        tv = NodeVector.initial(0, scores, {0: prior})
        before = tv.mass()
        sent = tv.halve()
        tv.merge(sent)
        after = tv.mass()
        assert after[0] == pytest.approx(before[0], abs=1e-12)
        assert after[1] == pytest.approx(before[1], abs=1e-12)


class TestTrustMatrixProperties:
    @COMMON
    @given(data=st.data(), n=st.integers(2, 20))
    def test_normalization_always_stochastic(self, data, n):
        raw = data.draw(
            hnp.arrays(
                np.float64,
                (n, n),
                elements=st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
            )
        )
        S = TrustMatrix.from_dense_raw(raw)
        dense = S.dense()
        assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(dense >= -1e-12)

    @COMMON
    @given(data=st.data(), n=st.integers(2, 20))
    def test_aggregation_preserves_probability_mass(self, data, n):
        raw = data.draw(
            hnp.arrays(
                np.float64,
                (n, n),
                elements=st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
            )
        )
        S = TrustMatrix.from_dense_raw(raw)
        v = data.draw(masses(n))
        if v.sum() == 0:
            v = np.full(n, 1.0)
        v = v / v.sum()
        out = S.aggregate(v)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out >= -1e-12)


class TestBloomProperties:
    @COMMON
    @given(items=st.lists(st.integers(), max_size=150, unique=True))
    def test_no_false_negatives_ever(self, items):
        bf = BloomFilter(max(8, len(items)), 0.05)
        for item in items:
            bf.add(item)
        assert all(item in bf for item in items)


class TestChordProperties:
    @COMMON
    @given(
        nodes=st.sets(st.integers(0, 10_000), min_size=2, max_size=40),
        key=st.integers(),
        start_idx=st.integers(0, 1000),
    )
    def test_lookup_always_reaches_true_owner(self, nodes, key, start_idx):
        ring = ChordRing(sorted(nodes), bits=24)
        start = ring.nodes[start_idx % len(ring.nodes)]
        res = ring.lookup(start, key)
        assert res.owner == ring.owner(key)


class TestDistributionProperties:
    @COMMON
    @given(
        exponent=st.floats(0.0, 3.0, allow_nan=False),
        kmax=st.integers(1, 500),
        seed=st.integers(0, 2**16),
    )
    def test_bounded_zipf_support(self, exponent, kmax, seed):
        d = BoundedZipf(exponent, kmax)
        s = d.sample(200, seed)
        assert s.min() >= 1 and s.max() <= kmax
        assert d.pmf.sum() == pytest.approx(1.0)

    @COMMON
    @given(
        n=st.integers(1, 2000),
        break_rank=st.integers(1, 400),
        seed=st.integers(0, 2**16),
    )
    def test_two_segment_zipf_support(self, n, break_rank, seed):
        with mock.patch.object(query, "_BREAK_RANK", break_rank):
            d = TwoSegmentZipf(n)
        ranks = d.sample_ranks(100, seed)
        assert ranks.min() >= 1 and ranks.max() <= n


class TestMetricProperties:
    @COMMON
    @given(data=st.data(), n=st.integers(1, 30))
    def test_average_relative_error_is_nonnegative_and_zero_iff_equal(self, data, n):
        v = data.draw(
            hnp.arrays(
                np.float64,
                n,
                elements=st.floats(1e-6, 1.0, allow_nan=False),
            )
        )
        assert average_relative_error(v, v) == 0.0
        u = data.draw(
            hnp.arrays(
                np.float64,
                n,
                elements=st.floats(1e-6, 1.0, allow_nan=False),
            )
        )
        assert average_relative_error(u, v) >= 0.0


class TestBloomStoreProperties:
    @COMMON
    @given(data=st.data(), n=st.integers(2, 60), bits=st.integers(2, 8))
    def test_stored_ids_always_found_within_bracket_error(self, data, n, bits):
        from repro.storage.reputation_store import BloomReputationStore

        scores = data.draw(
            hnp.arrays(
                np.float64,
                n,
                elements=st.floats(1e-6, 1.0, allow_nan=False),
            )
        )
        scores = scores / scores.sum()
        store = BloomReputationStore(bracket_bits=bits)
        store.build(scores)
        floor = reputation_store._MIN_SCORE
        ratio = (max(scores.max(), floor * 10) / floor) ** (1.0 / (1 << bits))
        for node in range(n):
            got = store.lookup(node)
            truth = max(scores[node], floor)
            # Within one bracket of truth, up to Bloom false positives
            # promoting to a higher bracket (never demoting below-1):
            assert got >= truth / (ratio * 2)


class TestLedgerMatrixEquivalence:
    @COMMON
    @given(
        data=st.data(),
        n=st.integers(2, 12),
    )
    def test_ledger_and_dense_constructions_agree(self, data, n):
        from repro.trust.feedback import FeedbackLedger
        from repro.trust.matrix import TrustMatrix

        raw = data.draw(
            hnp.arrays(
                np.float64,
                (n, n),
                elements=st.floats(0.0, 3.0, allow_nan=False),
            )
        )
        np.fill_diagonal(raw, 0.0)
        ledger = FeedbackLedger(n)
        for i in range(n):
            for j in range(n):
                if i != j and raw[i, j] > 0:
                    ledger.set_score(i, j, float(raw[i, j]))
        a = TrustMatrix.from_ledger(ledger).dense()
        b = TrustMatrix.from_dense_raw(raw).dense()
        assert np.allclose(a, b)


class TestStructuredEngineProperty:
    @COMMON
    @given(data=st.data(), n=st.integers(2, 24))
    def test_allreduce_exact_for_any_size_and_matrix(self, data, n):
        from repro.gossip.structured import StructuredAggregationEngine
        from repro.trust.matrix import TrustMatrix

        raw = data.draw(
            hnp.arrays(
                np.float64,
                (n, n),
                elements=st.floats(0.0, 2.0, allow_nan=False),
            )
        )
        np.fill_diagonal(raw, 0.0)
        S = TrustMatrix.from_dense_raw(raw)
        v = data.draw(masses(n))
        if v.sum() == 0:
            v = np.full(n, 1.0)
        v = v / v.sum()
        res = StructuredAggregationEngine(n).run_cycle(S, v)
        assert np.allclose(res.v_next, res.exact)
        assert res.node_disagreement < 1e-9
