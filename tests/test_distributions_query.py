"""Two-segment Zipf query popularity."""

import numpy as np
import pytest

from repro.distributions.query import TwoSegmentZipf
from repro.errors import ValidationError


class TestConstruction:
    def test_paper_defaults(self):
        d = TwoSegmentZipf(10_000)
        pmf = d.pmf
        assert d.break_rank == 250
        assert pmf[1] / pmf[0] == pytest.approx(2**-0.63, rel=1e-12)
        assert pmf[501] / pmf[500] == pytest.approx((502 / 501) ** -1.24, rel=1e-12)

    def test_break_rank_clipped_to_n(self):
        d = TwoSegmentZipf(100)
        assert d.break_rank == 100

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            TwoSegmentZipf(0)


class TestPmf:
    def test_sums_to_one(self):
        assert TwoSegmentZipf(5000).pmf.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        pmf = TwoSegmentZipf(2000).pmf
        assert np.all(np.diff(pmf) <= 1e-18)

    def test_continuous_at_break(self):
        pmf = TwoSegmentZipf(1000).pmf
        # No spike: the ratio across the break matches the tail exponent,
        # not a discontinuity.
        ratio = pmf[250] / pmf[249]
        expected = (251 / 250) ** -1.24
        assert ratio == pytest.approx(expected, rel=1e-9)

    def test_tail_steeper_than_head(self):
        d = TwoSegmentZipf(5000)
        pmf = d.pmf
        head_slope = np.log(pmf[199] / pmf[99]) / np.log(200 / 100)
        tail_slope = np.log(pmf[1999] / pmf[999]) / np.log(2000 / 1000)
        assert head_slope == pytest.approx(-0.63, abs=0.02)
        assert tail_slope == pytest.approx(-1.24, abs=0.02)



class TestSampling:
    def test_ranks_in_support(self, rng):
        ranks = TwoSegmentZipf(500).sample_ranks(20_000, rng)
        assert ranks.min() >= 1
        assert ranks.max() <= 500

    def test_head_is_hot(self, rng):
        d = TwoSegmentZipf(10_000)
        ranks = d.sample_ranks(50_000, rng)
        head_fraction = (ranks <= 250).mean()
        assert head_fraction == pytest.approx(d.pmf[:250].sum(), abs=0.02)

    def test_deterministic_given_seed(self):
        d = TwoSegmentZipf(100)
        assert np.array_equal(d.sample_ranks(50, 3), d.sample_ranks(50, 3))

    def test_rejects_negative_size(self):
        with pytest.raises(ValidationError):
            TwoSegmentZipf(10).sample_ranks(-5)
