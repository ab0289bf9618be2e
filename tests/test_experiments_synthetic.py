"""Synthetic trust-matrix generation (§6.1 base setting)."""

import numpy as np
import pytest

from repro.baselines.centralized import CentralizedEigenvector
from repro.distributions.powerlaw import FeedbackCountDistribution
from repro.errors import ValidationError
from repro.experiments.synthetic import synthetic_trust_matrix


def _whole_block_reference(n, rng, feedback_dist=None):
    """The generator before its row-wise redraw rounds: every round re-sorts
    the whole block.  Returns the CSR arrays and the generator."""
    gen = np.random.default_rng(rng)
    dist = feedback_dist or FeedbackCountDistribution()
    counts = np.minimum(dist.sample_counts(n, gen), n - 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    cand = gen.integers(0, n - 1, size=int(counts.sum()))
    key = rows * (n - 1) + cand
    while True:
        order = np.argsort(key, kind="stable")
        dup = key[order][1:] == key[order][:-1]
        if not dup.any():
            break
        bad = order[1:][dup]
        cand[bad] = gen.integers(0, n - 1, size=bad.size)
        key[bad] = rows[bad] * (n - 1) + cand[bad]
    part = cand[order]
    part[part >= rows] += 1
    vals = 1.0 - gen.random(part.size)
    vals *= np.repeat(1.0 / np.add.reduceat(vals, indptr[:-1]), counts)
    return part, vals, indptr, gen


class TestSyntheticMatrix:
    def test_rows_stochastic(self):
        S = synthetic_trust_matrix(100, rng=0)
        assert np.allclose(S.dense().sum(axis=1), 1.0)

    def test_no_self_ratings(self):
        S = synthetic_trust_matrix(50, rng=1)
        assert np.all(np.diag(S.dense()) == 0.0)

    def test_out_degrees_follow_feedback_distribution(self):
        n = 400
        S = synthetic_trust_matrix(n, rng=2)
        degrees = np.asarray((S.sparse() != 0).sum(axis=1)).ravel()
        # Bounded by the paper's d_max, mean in the d_avg ballpark.
        assert degrees.max() <= 200
        assert degrees.mean() == pytest.approx(20.0, rel=0.35)

    def test_custom_feedback_distribution(self):
        dist = FeedbackCountDistribution(d_max=5, d_avg=2.0)
        S = synthetic_trust_matrix(60, feedback_dist=dist, rng=3)
        degrees = np.asarray((S.sparse() != 0).sum(axis=1)).ravel()
        assert degrees.max() <= 5

    def test_deterministic(self):
        a = synthetic_trust_matrix(40, rng=7)
        b = synthetic_trust_matrix(40, rng=7)
        assert np.allclose(a.dense(), b.dense())

    @pytest.mark.parametrize(
        "n, dist",
        [(n, None) for n in (2, 3, 10, 96, 128, 300, 1000)]
        # most rows capped at n - 1: long coupon-collector redraw tails
        + [(41, FeedbackCountDistribution(d_max=200, d_avg=100.0))],
    )
    def test_matches_the_whole_block_redraw_loop(self, n, dist):
        got_gen = np.random.default_rng(n)
        got = synthetic_trust_matrix(n, feedback_dist=dist, rng=got_gen).sparse()
        indices, data, indptr, want_gen = _whole_block_reference(n, n, dist)
        assert got.indices.tolist() == indices.tolist()
        assert got.indptr.tolist() == indptr.tolist()
        assert got.data.tobytes() == data.tobytes()
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    def test_rejects_tiny_n(self):
        with pytest.raises(ValidationError):
            synthetic_trust_matrix(1)

    def test_oracle_computable_on_output(self):
        S = synthetic_trust_matrix(80, rng=4)
        v = CentralizedEigenvector(S).compute()
        assert v.sum() == pytest.approx(1.0)


class TestLazyIterationOnPeriodicChains:
    """The oracle must handle chains plain power iteration cannot."""

    def test_two_cycle_chain(self):
        # 0 <-> 1 strictly alternating: plain power iteration oscillates
        # forever; the lazy chain converges to the true stationary (.5, .5).
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        v = CentralizedEigenvector(S).compute(cross_check=True)
        assert v.tolist() == pytest.approx([0.5, 0.5])

    def test_three_cycle_chain(self):
        S = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        v = CentralizedEigenvector(S).compute(cross_check=True)
        assert v.tolist() == pytest.approx([1 / 3] * 3)

    def test_lazy_fixed_point_unchanged_on_aperiodic_chain(self, random_S):
        # Laziness must not move the answer where plain iteration works.
        v = CentralizedEigenvector(random_S).compute()
        assert np.allclose(random_S.aggregate(v), v, atol=1e-9)
