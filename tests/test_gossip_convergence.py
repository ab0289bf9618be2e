"""The delta (aggregation-cycle) convergence detector and its error metric."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gossip.convergence import (
    CycleConvergenceDetector,
    average_relative_error,
)


class TestAverageRelativeError:
    def test_zero_for_identical(self):
        v = np.array([0.2, 0.8])
        assert average_relative_error(v, v) == 0.0

    def test_known_value(self):
        old = np.array([1.0, 2.0])
        new = np.array([1.1, 1.8])
        # (0.1/1 + 0.2/2) / 2 = 0.1
        assert average_relative_error(new, old) == pytest.approx(0.1)

    def test_floor_guards_zero_reference(self):
        old = np.array([0.0, 1.0])
        new = np.array([0.0, 1.0])
        assert average_relative_error(new, old) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            average_relative_error(np.ones(2), np.ones(3))


class TestCycleDetector:
    def test_avg_relative_criterion(self):
        det = CycleConvergenceDetector(1e-2)
        det.update(np.array([0.5, 0.5]))
        assert det.update(np.array([0.5005, 0.4995])) is True

    def test_stays_unconverged_above_delta(self):
        det = CycleConvergenceDetector(1e-4)
        det.update(np.array([0.5, 0.5]))
        assert det.update(np.array([0.45, 0.55])) is False

    def test_cycles_counter_and_reset(self):
        det = CycleConvergenceDetector(1e-3)
        det.update(np.ones(2) / 2)
        det.update(np.ones(2) / 2)
        assert det.cycles == 2
        det.reset()
        assert det.cycles == 0


class TestDegenerateInputs:
    """Empty and all-NaN estimate columns must never crash or converge."""

    def test_average_relative_error_empty_is_zero(self):
        assert average_relative_error(np.array([]), np.array([])) == 0.0

    def test_average_relative_error_all_nan_is_inf(self):
        nan2 = np.array([np.nan, np.nan])
        assert average_relative_error(nan2, nan2) == float("inf")
        assert average_relative_error(nan2, np.ones(2)) == float("inf")

    def test_average_relative_error_partial_nan_uses_finite_entries(self):
        new = np.array([1.1, np.nan, 2.0])
        old = np.array([1.0, 5.0, np.nan])
        # Only index 0 is finite in both; error is |1.1 - 1.0| / 1.0.
        assert average_relative_error(new, old) == pytest.approx(0.1)

    def test_average_relative_error_inf_entries_masked(self):
        new = np.array([np.inf, 1.0])
        old = np.array([1.0, 1.0])
        assert average_relative_error(new, old) == 0.0

    def test_cycle_detector_empty_vector_never_converges(self):
        det = CycleConvergenceDetector(1e-2)
        empty = np.array([])
        for _ in range(4):
            assert det.update(empty) is False
        assert det.cycles == 4

    def test_cycle_detector_all_nan_blocks_convergence(self):
        det = CycleConvergenceDetector(1e-2)
        nan4 = np.full(4, np.nan)
        assert det.update(nan4) is False
        assert det.update(nan4) is False
        assert det.last_residual == float("inf")
