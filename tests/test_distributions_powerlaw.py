"""Bounded Zipf / power-law samplers: bounds, means, determinism."""

import numpy as np
import pytest

from repro.distributions.powerlaw import (
    BoundedZipf,
    FeedbackCountDistribution,
    powerlaw_weights,
    solve_zipf_exponent_for_mean,
)
from repro.errors import ValidationError


class TestPowerlawWeights:
    def test_monotone_decreasing(self):
        w = powerlaw_weights(100, 1.2)
        assert np.all(np.diff(w) < 0)

    def test_exponent_zero_is_uniform(self):
        w = powerlaw_weights(10, 0.0)
        assert np.allclose(w, 1.0)

    def test_first_weight_is_one(self):
        assert powerlaw_weights(5, 2.3)[0] == 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            powerlaw_weights(0, 1.0)
        with pytest.raises(ValidationError):
            powerlaw_weights(10, -0.5)


class TestSolveExponent:
    @pytest.mark.parametrize("target", [2.0, 5.0, 20.0, 80.0])
    def test_realizes_target_mean(self, target):
        a = solve_zipf_exponent_for_mean(target, 200)
        assert BoundedZipf(a, 200).mean == pytest.approx(target, rel=1e-6)

    def test_rejects_unattainable_means(self):
        with pytest.raises(ValidationError):
            solve_zipf_exponent_for_mean(1.0, 200)  # mean > 1 required
        with pytest.raises(ValidationError):
            solve_zipf_exponent_for_mean(150.0, 200)  # above (kmax+1)/2

    def test_larger_mean_needs_smaller_exponent(self):
        a_small = solve_zipf_exponent_for_mean(5.0, 200)
        a_large = solve_zipf_exponent_for_mean(50.0, 200)
        assert a_large < a_small


class TestBoundedZipf:
    def test_samples_within_support(self, rng):
        dist = BoundedZipf(1.1, 50)
        s = dist.sample(10_000, rng)
        assert s.min() >= 1
        assert s.max() <= 50

    def test_pmf_sums_to_one(self):
        assert BoundedZipf(0.8, 123).pmf.sum() == pytest.approx(1.0)

    def test_supports_exponent_below_one(self, rng):
        # numpy's zipf cannot do this; ours must.
        s = BoundedZipf(0.63, 1000).sample(1000, rng)
        assert s.max() <= 1000

    def test_empirical_mean_matches_analytic(self, rng):
        dist = BoundedZipf(1.5, 100)
        s = dist.sample(200_000, rng)
        assert s.mean() == pytest.approx(dist.mean, rel=0.02)

    def test_deterministic_given_seed(self):
        d = BoundedZipf(1.2, 30)
        assert np.array_equal(d.sample(100, 5), d.sample(100, 5))

    def test_zero_size(self):
        assert BoundedZipf(1.0, 10).sample(0).size == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValidationError):
            BoundedZipf(1.0, 10).sample(-1)


class TestFeedbackCountDistribution:
    def test_paper_defaults(self):
        dist = FeedbackCountDistribution()
        assert dist.kmax == 200
        assert dist.mean == pytest.approx(20.0, rel=1e-6)

    def test_counts_bounded_by_d_max(self, rng):
        counts = FeedbackCountDistribution().sample_counts(5000, rng)
        assert counts.max() <= 200
        assert counts.min() >= 1

    def test_empirical_average_near_d_avg(self, rng):
        counts = FeedbackCountDistribution().sample_counts(100_000, rng)
        assert counts.mean() == pytest.approx(20.0, rel=0.05)

    def test_heavy_tail_exists(self, rng):
        counts = FeedbackCountDistribution().sample_counts(50_000, rng)
        assert (counts > 100).sum() > 0  # tail reaches near d_max
