"""Process-level resource metrics.

One shared reader for the process's peak resident set size, used by the
per-cycle telemetry (:mod:`repro.metrics.telemetry`), the parallel sweep
runner (:mod:`repro.experiments.runner`), and the benchmark trajectory
writer (``tools/bench_runner.py``) so every layer reports memory in the
same unit (KiB) from the same source.

Two kinds of reading:

* :func:`peak_rss_kib` — the process-*lifetime* high-water mark
  (``ru_maxrss``).  Monotone: once some phase touched 2 GiB, every
  later reading reports >= 2 GiB, so consecutive measurements of small
  workloads all inherit the same peak.
* :class:`PeakRssMeter` — a *per-interval* peak.  On Linux the kernel's
  high-water mark is reset at interval start (``/proc/self/clear_refs``,
  command ``5``) and read back from ``VmHWM``, so each interval reports
  only its own peak.  Where the reset interface is unavailable the
  meter degrades to the lifetime reader (and says so via
  :attr:`PeakRssMeter.exact`), which is an upper bound rather than a
  per-interval measurement.
"""

from __future__ import annotations

import platform

__all__ = ["peak_rss_kib", "reset_peak_rss", "PeakRssMeter"]

_STATUS = "/proc/self/status"
_CLEAR_REFS = "/proc/self/clear_refs"


def peak_rss_kib() -> float:
    """Max resident set size of this process so far, in KiB.

    Returns 0.0 on platforms without :mod:`resource` (e.g. Windows) —
    callers treat 0.0 as "unknown", never as a real measurement.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes.
    if platform.system() == "Darwin":  # pragma: no cover - platform branch
        peak /= 1024.0
    return float(peak)


def _read_status_kib(field: str) -> float:
    """A ``VmHWM``/``VmRSS``-style field from /proc/self/status, in KiB."""
    try:
        with open(_STATUS, "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field):
                    return float(line.split()[1])  # "VmHWM:  1234 kB"
    except OSError:  # pragma: no cover - no procfs
        pass
    return 0.0


def reset_peak_rss() -> bool:
    """Reset the kernel's RSS high-water mark for this process.

    Writes command ``5`` to ``/proc/self/clear_refs`` (Linux), after
    which ``VmHWM`` restarts from the *current* RSS — the mechanism
    behind per-interval peaks.  Returns False where unsupported
    (non-Linux, restricted procfs); ``ru_maxrss`` is NOT affected
    either way.
    """
    try:
        with open(_CLEAR_REFS, "w", encoding="ascii") as fh:
            fh.write("5")
        return True
    except OSError:  # pragma: no cover - non-Linux / restricted procfs
        return False


class PeakRssMeter:
    """Per-interval peak-RSS meter.

    >>> meter = PeakRssMeter()        # resets the high-water mark
    >>> workload = bytearray(1 << 20)  # the measured work
    >>> peak = meter.read_kib()       # peak RSS of the interval, KiB

    ``read_kib`` may be called repeatedly (the interval keeps running);
    call :meth:`restart` to begin a new interval.  When the kernel
    reset interface is unavailable, :attr:`exact` is False and readings
    fall back to the process-lifetime peak — still a valid upper bound,
    no longer per-interval.
    """

    __slots__ = ("exact",)

    def __init__(self) -> None:
        #: True when per-interval resets are supported (Linux procfs)
        self.exact = reset_peak_rss()

    def restart(self) -> None:
        """Start a new measurement interval."""
        self.exact = reset_peak_rss()

    def read_kib(self) -> float:
        """Peak RSS since the last (re)start, in KiB.

        Falls back to the lifetime high-water mark when resets are
        unsupported (see :attr:`exact`).
        """
        if self.exact:
            peak = _read_status_kib("VmHWM")
            if peak > 0.0:
                return peak
        return peak_rss_kib()  # pragma: no cover - non-Linux fallback
