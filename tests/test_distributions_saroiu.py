"""Saroiu file-ownership distribution."""

import numpy as np
import pytest

from repro.distributions import saroiu
from repro.distributions.saroiu import SaroiuFileOwnership
from repro.errors import ValidationError


class TestConstruction:
    def test_defaults(self):
        assert saroiu._FREE_RIDER_FRACTION == 0.25
        assert (saroiu._SHAPE, saroiu._MIN_FILES, saroiu._MAX_FILES) == (1.2, 1, 10_000)


class TestSampling:
    def test_counts_in_bounds(self, rng, monkeypatch):
        monkeypatch.setattr(saroiu, "_MAX_FILES", 1000)
        counts = SaroiuFileOwnership().sample_counts(20_000, rng)
        sharing = counts[counts > 0]
        assert sharing.min() >= 1
        assert sharing.max() <= 1000

    def test_free_rider_fraction_realized(self, rng):
        counts = SaroiuFileOwnership().sample_counts(50_000, rng)
        assert (counts == 0).mean() == pytest.approx(0.25, abs=0.01)

    def test_no_free_riders_when_fraction_zero(self, rng, monkeypatch):
        monkeypatch.setattr(saroiu, "_FREE_RIDER_FRACTION", 0.0)
        counts = SaroiuFileOwnership().sample_counts(5000, rng)
        assert (counts == 0).sum() == 0

    def test_skew_median_well_below_mean(self, rng):
        counts = SaroiuFileOwnership().sample_counts(50_000, rng)
        sharing = counts[counts > 0]
        assert np.median(sharing) < sharing.mean() / 2

    def test_deterministic_given_seed(self):
        d = SaroiuFileOwnership()
        assert np.array_equal(d.sample_counts(100, 9), d.sample_counts(100, 9))

    def test_zero_peers(self, rng):
        assert SaroiuFileOwnership().sample_counts(0, rng).size == 0

    def test_rejects_negative_peers(self):
        with pytest.raises(ValidationError):
            SaroiuFileOwnership().sample_counts(-1)
