"""Pretrust vectors and greedy-factor mixing."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.trust.pretrust import PretrustVector


class TestConstruction:
    def test_mass_split_among_members(self):
        p = PretrustVector(4, [1, 3])
        assert p.vector.tolist() == [0.0, 0.5, 0.0, 0.5]

    def test_empty_members_is_uniform(self):
        p = PretrustVector(4)
        assert p.vector.tolist() == [0.25] * 4

    def test_members_frozen(self):
        p = PretrustVector(5, [0, 2])
        assert np.flatnonzero(p.vector).tolist() == [0, 2]

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValidationError):
            PretrustVector(3, [3])
        with pytest.raises(ValidationError):
            PretrustVector(0)

    def test_vector_is_copy(self):
        p = PretrustVector(3, [0])
        v = p.vector
        v[0] = 0.0
        assert p.vector[0] == 1.0


class TestMixing:
    def test_mix_formula(self):
        p = PretrustVector(2, [0])
        agg = np.array([0.4, 0.6])
        out = p.mix(agg, 0.5)
        assert out.tolist() == pytest.approx([0.7, 0.3])

    def test_alpha_zero_is_identity(self):
        p = PretrustVector(3, [1])
        agg = np.array([0.2, 0.3, 0.5])
        assert p.mix(agg, 0.0).tolist() == agg.tolist()

    def test_alpha_one_is_pretrust(self):
        p = PretrustVector(3, [1])
        out = p.mix(np.array([0.2, 0.3, 0.5]), 1.0)
        assert out.tolist() == [0.0, 1.0, 0.0]

    def test_mix_preserves_probability_mass(self):
        p = PretrustVector(5, [0, 4])
        agg = np.full(5, 0.2)
        assert p.mix(agg, 0.15).sum() == pytest.approx(1.0)

    def test_mix_validates_alpha_and_shape(self):
        p = PretrustVector(3, [0])
        with pytest.raises(ValidationError):
            p.mix(np.ones(3) / 3, 1.5)
        with pytest.raises(ValidationError):
            p.mix(np.ones(4) / 4, 0.1)
