"""Process resource metrics (:mod:`repro.utils.proc`).

The per-interval :class:`PeakRssMeter` is what makes per-entry memory
budgets in the benchmark trajectory meaningful: the lifetime
``ru_maxrss`` reading is monotone, so without high-water-mark resets
every entry after the largest one inherits its peak.
"""

import numpy as np

from repro.utils.proc import (
    PeakRssMeter,
    peak_rss_kib,
    reset_peak_rss,
)


class TestLifetimeReaders:
    def test_peak_rss_positive_on_posix(self):
        assert peak_rss_kib() > 0.0


class TestPeakRssMeter:
    def test_meter_reports_interval_allocation(self):
        """A large allocation inside the interval must register; after a
        restart the next interval must NOT inherit it."""
        meter = PeakRssMeter()
        if not meter.exact:  # platform without /proc/self/clear_refs
            assert meter.read_kib() == peak_rss_kib()
            return
        baseline = meter.read_kib()
        ballast_kib = 64 * 1024
        ballast = np.ones(ballast_kib * 1024 // 8)  # touch every page
        peak_with_ballast = meter.read_kib()
        assert peak_with_ballast >= baseline + 0.8 * ballast_kib
        del ballast
        meter.restart()
        assert meter.read_kib() < peak_with_ballast

    def test_read_is_repeatable(self):
        meter = PeakRssMeter()
        first = meter.read_kib()
        second = meter.read_kib()
        assert second >= first > 0.0

    def test_reset_returns_bool(self):
        assert reset_peak_rss() in (True, False)
