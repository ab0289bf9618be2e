"""Error/ranking metrics, including the paper's Eq. 8."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.metrics.errors import (
    kendall_tau,
    rank_overlap,
    rms_relative_error,
)


class TestRmsRelativeError:
    def test_zero_for_identical(self):
        v = np.array([0.2, 0.8])
        assert rms_relative_error(v, v) == 0.0

    def test_eq8_hand_computed(self):
        v = np.array([0.5, 0.5])
        u = np.array([0.4, 0.6])
        # rel errors: 0.2 and -0.2 -> RMS = 0.2
        assert rms_relative_error(v, u) == pytest.approx(0.2)

    def test_zero_reference_components_excluded(self):
        v = np.array([0.0, 1.0])
        u = np.array([5.0, 1.1])
        # Component 0 has no defined relative error; only 10% counts.
        assert rms_relative_error(v, u) == pytest.approx(0.1)

    def test_all_zero_reference_rejected(self):
        with pytest.raises(ValidationError):
            rms_relative_error(np.zeros(3), np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            rms_relative_error(np.ones(2), np.ones(3))

    def test_sensitive_to_small_score_errors(self):
        # Equal absolute error hurts a small score more — Eq. 8 is relative.
        v = np.array([0.9, 0.1])
        u_small_hit = np.array([0.9, 0.2])
        u_big_hit = np.array([1.0, 0.1])
        assert rms_relative_error(v, u_small_hit) > rms_relative_error(v, u_big_hit)


class TestRanking:
    def test_kendall_tau_perfect_and_inverted(self):
        v = np.array([0.1, 0.2, 0.3, 0.4])
        assert kendall_tau(v, v) == pytest.approx(1.0)
        assert kendall_tau(v, v[::-1].copy() * 0 + np.array([0.4, 0.3, 0.2, 0.1])) == pytest.approx(-1.0)

    def test_rank_overlap_full_and_none(self):
        v = np.array([0.4, 0.3, 0.2, 0.1])
        assert rank_overlap(v, v, 2) == 1.0
        u = np.array([0.1, 0.2, 0.3, 0.4])
        assert rank_overlap(v, u, 2) == 0.0

    def test_rank_overlap_partial(self):
        v = np.array([0.4, 0.3, 0.2, 0.1])
        u = np.array([0.4, 0.1, 0.3, 0.2])
        assert rank_overlap(v, u, 2) == 0.5

    def test_rank_overlap_k_validation(self):
        v = np.ones(3)
        with pytest.raises(ValidationError):
            rank_overlap(v, v, 0)
        with pytest.raises(ValidationError):
            rank_overlap(v, v, 4)
