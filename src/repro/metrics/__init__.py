"""Evaluation metrics: error measures (Eq. 8), ranking quality, reporting."""

from repro.metrics.convergence import theoretical_cycle_bound
from repro.metrics.errors import (
    rank_overlap,
    kendall_tau,
    rms_relative_error,
)
from repro.metrics.reporting import Series, TextTable
from repro.metrics.telemetry import CycleRecord, CycleTelemetry

__all__ = [
    "CycleRecord",
    "CycleTelemetry",
    "rms_relative_error",
    "kendall_tau",
    "rank_overlap",
    "theoretical_cycle_bound",
    "TextTable",
    "Series",
]
