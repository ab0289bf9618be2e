"""Sample summaries and the comparison of two sets of benchmark runs.

Standard library only: ``--compare`` reads the JSON lines that ``--json``
appends and needs neither numpy nor the library.

Verdicts follow the benchmark's rules.  For each workload and
end-to-end metric, each side's median and quartiles come from
``statistics.quantiles(values, n=4)``:

* ``unresolved`` — either side's quartile spread exceeds the metric's
  bound, unless every new run beats every base run (``improved``);
* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``improved`` — the medians differ by more than the base quartile
  spread and the new run wins at least nine tenths of the runs paired
  by seed (ties count for neither);
* ``unchanged`` — anything else.

Per-layer counts (unit ``count``) repeat exactly for a given seed, so
they are compared exactly, run against run paired by seed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["highest_percentile", "quartiles", "verdict", "count_verdict", "compare"]

#: candidate percentiles, in tenths of a percent
_LADDER = (500, 750, 800, 900, 950, 990, 999)


def highest_percentile(count: int) -> Optional[float]:
    """The highest percentile that leaves at least ten of ``count`` samples beyond it.

    None when even the median does not (fewer than 20 samples).
    """
    best = None
    for tenths in _LADDER:
        if count * (1000 - tenths) >= 10 * 1000:
            best = tenths / 10
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver computes them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(base: Dict[int, List[float]], new: Dict[int, List[float]]) -> List[Tuple[float, float]]:
    """Runs of the two sides paired by seed, in run order within a seed."""
    return [
        pair for seed in sorted(set(base) & set(new)) for pair in zip(base[seed], new[seed])
    ]


def verdict(
    base: Dict[int, List[float]], new: Dict[int, List[float]], better: str, bound: float
) -> str:
    """Verdict for one end-to-end metric; ``base``/``new`` map seed -> values."""
    sign = 1.0 if better == "lower" else -1.0
    b = [v for vs in base.values() for v in vs]
    n = [v for vs in new.values() for v in vs]
    b1, bm, b3 = quartiles(b)
    n1, nm, n3 = quartiles(n)
    every_run_better = max(n) < min(b) if better == "lower" else min(n) > max(b)
    if (b3 - b1) / bm > bound or (n3 - n1) / nm > bound:
        return "improved" if every_run_better else "unresolved"
    if sign * (nm - bm) / bm > bound:
        return "regressed"
    pairs = _pairs(base, new)
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if sign * (bm - nm) > b3 - b1 and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def count_verdict(base: Dict[int, List[float]], new: Dict[int, List[float]], better: str) -> str:
    """Exact verdict for a deterministic count, run against run by seed."""
    sign = 1.0 if better == "lower" else -1.0
    deltas = [sign * (y - x) for x, y in _pairs(base, new)]
    if not deltas:
        return "unpaired"
    if all(d == 0 for d in deltas):
        return "unchanged"
    if all(d <= 0 for d in deltas):
        return "improved"
    if all(d >= 0 for d in deltas):
        return "regressed"
    return "changed"


def _load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _series(runs: Iterable[dict], name: str) -> Dict[str, Dict[int, List[float]]]:
    """workload -> seed -> values of metric ``name``, in file order."""
    out: Dict[str, Dict[int, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        metric = run["metrics"].get(name)
        if metric is not None:
            out[run["workload"]][run["seed"]].append(float(metric["value"]))
    return out


def compare(base_path: str, new_path: str, spec: dict) -> int:
    """Print one verdict line per workload and metric; 1 if anything regressed."""
    base, new = _load(base_path), _load(new_path)
    regressed = False
    print(f"{'workload':<12} {'metric':<34} {'base p50 [q1, q3]':>34} "
          f"{'new p50 [q1, q3]':>34} {'change':>8}  verdict")
    rows = [(m, True) for m in spec["end_to_end"]]
    rows += [(m, False) for m in spec["per_layer"] if m["unit"] == "count"]
    for metric, timed in rows:
        b_all, n_all = _series(base, metric["name"]), _series(new, metric["name"])
        for workload in sorted(set(b_all) & set(n_all)):
            b, n = b_all[workload], n_all[workload]
            if timed:
                result = verdict(b, n, metric["better"], metric["bound"])
            else:
                result = count_verdict(b, n, metric["better"])
            regressed |= result == "regressed"
            bq = quartiles([v for vs in b.values() for v in vs])
            nq = quartiles([v for vs in n.values() for v in vs])
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            print(
                f"{workload:<12} {metric['name']:<34} "
                f"{bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                f"{nq[1]:>12.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {change:>+8.2%}  {result}"
            )
    return 1 if regressed else 0
