"""Experiment registry: id -> runner.

Every runner takes keyword arguments only and returns an
:class:`~repro.experiments.base.ExperimentResult`.  ``quick=True``
shrinks a run to smoke-test scale (used by tests and the CLI's
``--quick``); full scale reproduces the paper's parameters.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.churn_resilience import run_churn_resilience
from repro.experiments.fault_tolerance import run_fault_tolerance
from repro.experiments.fig3_gossip_steps import run_fig3
from repro.experiments.fig4_malicious import run_fig4a, run_fig4b
from repro.experiments.fig5_filesharing import run_fig5
from repro.experiments.load_experiment import run_load
from repro.experiments.objects_experiment import run_objects
from repro.experiments.overhead_comparison import run_overhead
from repro.experiments.qof_experiment import run_qof
from repro.experiments.storage_experiment import run_storage
from repro.experiments.structured_experiment import run_structured
from repro.experiments.table1_example import run_table1
from repro.experiments.table3_errors import run_table3

__all__ = ["list_experiments", "get_experiment", "run_experiment", "QUICK_OVERRIDES"]

_RUNNERS: Dict[str, Tuple[Callable[..., ExperimentResult], str]] = {
    "table1": (run_table1, "3-node worked example (Fig. 2 / Table 1)"),
    "fig3": (run_fig3, "Gossip steps vs error threshold, three network sizes"),
    "table3": (run_table3, "Gossip/aggregation errors under threshold settings"),
    "fig4a": (run_fig4a, "RMS error vs independent malicious fraction"),
    "fig4b": (run_fig4b, "RMS error vs collusion group size"),
    "fig5": (run_fig5, "Query success rate, GossipTrust vs NoTrust"),
    "fault": (run_fault_tolerance, "Gossip error under loss/link failure/churn"),
    "resilience": (
        run_churn_resilience,
        "Partner strategies under scripted crash/partition/loss chaos",
    ),
    "storage": (run_storage, "Bloom reputation store: memory vs accuracy"),
    "overhead": (run_overhead, "Messages/hops vs DHT baselines"),
    "qof": (run_qof, "Quality-of-feedback weighting (s7 extension)"),
    "objects": (run_objects, "Object/version reputation vs poisoning (s7 extension)"),
    "structured": (run_structured, "DHT all-reduce acceleration (s7 extension)"),
    "load": (run_load, "Success vs load-balance tradeoff of selection policies"),
}

#: per-experiment keyword overrides that shrink a run to smoke scale
QUICK_OVERRIDES: Dict[str, Dict[str, object]] = {
    "table1": {},
    "fig3": {"sizes": (200, 400), "epsilons": (1e-2, 1e-3), "repeats": 1, "cycles_per_point": 1},
    "table3": {"n": 150, "repeats": 1},
    "fig4a": {"n": 200, "gammas": (0.0, 0.2), "alphas": (0.0, 0.15), "repeats": 1},
    "fig4b": {"n": 200, "fractions": (0.05,), "group_sizes": (2, 6), "repeats": 1},
    "fig5": {"n": 150, "n_files": 3000, "gammas": (0.0, 0.2), "queries": 1200, "refresh_interval": 400, "repeats": 1},
    "fault": {"n": 48, "loss_rates": (0.0, 0.2), "link_failure_fractions": (0.0,), "departure_counts": (0, 4), "repeats": 1},
    "resilience": {"n": 48, "strategies": ("global", "brahms"), "plans": ("crash",), "engines": ("message",), "repeats": 1},
    "storage": {"n": 300, "bracket_bits": (4, 6), "repeats": 1},
    "overhead": {"sizes": (100, 200), "repeats": 1},
    "qof": {"n": 200, "gammas": (0.2, 0.4), "repeats": 1},
    "objects": {"n_peers": 100, "n_files": 60, "gammas": (0.1, 0.5), "downloads": 1500, "repeats": 1},
    "structured": {"sizes": (150, 300), "repeats": 1},
    "load": {"n": 120, "n_files": 1500, "queries": 900, "refresh_interval": 300, "sharpness_values": (0.0, 1.0), "repeats": 1},
}


def list_experiments() -> Dict[str, str]:
    """Mapping of experiment id to one-line description."""
    return {eid: desc for eid, (_fn, desc) in _RUNNERS.items()}


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The runner for ``experiment_id``; raises on unknown ids."""
    try:
        return _RUNNERS[experiment_id][0]
    except KeyError:
        known = ", ".join(sorted(_RUNNERS))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def run_experiment(
    experiment_id: str, *, quick: bool = False, **overrides: object
) -> ExperimentResult:
    """Run an experiment, optionally at quick (smoke) scale.

    Explicit ``overrides`` win over the quick defaults.
    """
    runner = get_experiment(experiment_id)
    kwargs: Dict[str, object] = {}
    if quick:
        kwargs.update(QUICK_OVERRIDES.get(experiment_id, {}))
    kwargs.update(overrides)
    return runner(**kwargs)
