"""Storage efficiency — the Bloom-filter reputation store (§7 claim).

Sweeps the bracket width ``b`` of the bracketed Bloom store over a
realistic (power-law) reputation vector and reports, per setting, the
memory footprint against a raw score table, the quantization error, and
the misbracket rate from Bloom false positives.  The claim being
checked: order-of-magnitude compression at a relative score error small
enough not to disturb top-k peer selection.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.aggregation import exact_global_reputation
from repro.core.config import GossipTrustConfig
from repro.experiments.base import ExperimentResult, seed_range
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.metrics.errors import rank_overlap
from repro.metrics.reporting import Series, TextTable, percentile
from repro.storage.reputation_store import BloomReputationStore
from repro.utils.rng import RngStreams

__all__ = ["run_storage"]


def run_storage(
    *,
    n: int = 1000,
    bracket_bits: Sequence[int] = (3, 4, 5, 6, 7, 8),
    repeats: int = 10,
    top_k: int = 10,
) -> ExperimentResult:
    """Sweep bracket bits; report compression, error, and top-k fidelity.

    Each cell is a median over the ``repeats`` seeds.  The top-k overlap
    also reports its quartiles: ``data[bits]["top_k_overlap/q1"]`` and
    ``/q3``, with the per-seed values under ``/seeds``.
    """
    table = TextTable(
        [
            "bracket_bits",
            "compression",
            "mean_rel_error",
            "max_rel_error",
            "misbracket_rate",
            f"top{top_k}_median",
            f"top{top_k}_q1",
            f"top{top_k}_q3",
        ],
        title=(
            f"Bloom reputation store: memory vs accuracy (n={n}, "
            f"median [IQR] over {repeats} seeds)"
        ),
        float_fmt=".3g",
    )
    series = Series(label="mean relative error")
    comp_series = Series(label="compression ratio")
    vectors = []
    for seed in seed_range(repeats):
        S = synthetic_trust_matrix(n, rng=RngStreams(seed).get("matrix"))
        vectors.append(exact_global_reputation(S, GossipTrustConfig(n=n)).vector)
    raw = {}
    for bits in bracket_bits:
        comp, mean_err, max_err, misb, overlap = [], [], [], [], []
        for v in vectors:
            store = BloomReputationStore(bracket_bits=bits)
            store.build(v)
            report = store.report()
            comp.append(report.compression_ratio)
            mean_err.append(report.mean_relative_error)
            max_err.append(report.max_relative_error)
            misb.append(report.misbracket_rate)
            overlap.append(rank_overlap(v, store.lookup_vector(n), top_k))
        med = [percentile(values, 50.0) for values in (comp, mean_err, max_err, misb)]
        top = [percentile(overlap, q) for q in (50.0, 25.0, 75.0)]
        table.add_row([bits, *med, *top])
        series.add(bits, med[1])
        comp_series.add(bits, med[0])
        raw[str(bits)] = {
            "compression": med[0],
            "mean_rel_error": med[1],
            "top_k_overlap": top[0],
            "top_k_overlap/q1": top[1],
            "top_k_overlap/q3": top[2],
            "top_k_overlap/seeds": overlap,
        }
    return ExperimentResult(
        experiment_id="storage",
        title="Reputation storage efficiency with bracketed Bloom filters",
        tables=[table],
        series=[series, comp_series],
        data=raw,
    )
