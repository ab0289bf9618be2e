"""Bench: Table 3 — errors under three convergence settings, n = 1000.

Runs the protocol in full (per-node, per-component) mode like the
paper.  Shape assertions: tighter (epsilon, delta) costs more cycles
and steps and yields smaller gossip/aggregation errors; gossip error
lands well below its epsilon; aggregation error below its delta; the
measured cycles stay at or under the §4.1 cycle bound.
"""

from repro.experiments.table3_errors import PAPER_SETTINGS, run_table3

#: cycles the measured count may exceed the bound by.  The gossiped
#: vector carries epsilon-sized noise into the delta check, which can
#: cost a cycle the exact iteration would not need.  On seeds 0-11 no
#: run exceeded its bound at all; the closest came 1 cycle under it.
CYCLE_BOUND_SLACK = 1.0


def test_table3_error_tradeoff(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: run_table3(n=1000, settings=PAPER_SETTINGS, repeats=2),
        rounds=1,
        iterations=1,
    )
    save_result(result)
    rows = result.data["rows"]
    tight = rows["1e-05/0.0001"]
    mid = rows["0.0001/0.001"]
    loose = rows["0.001/0.01"]

    # Cost ordering (paper: 19/15/5 cycles, 35/28/22 steps).
    assert tight["cycles"] >= mid["cycles"] >= loose["cycles"]
    assert tight["steps"] > loose["steps"]

    # Accuracy ordering (paper: 1e-6/7e-6/1.6e-4 gossip error).
    assert tight["gossip_error"] < mid["gossip_error"] < loose["gossip_error"]
    assert (
        tight["aggregation_error"]
        < mid["aggregation_error"]
        < loose["aggregation_error"]
    )

    # Errors sit below their thresholds.
    for (eps, delta), row in zip(
        ((1e-5, 1e-4), (1e-4, 1e-3), (1e-3, 1e-2)), (tight, mid, loose)
    ):
        assert row["gossip_error"] < eps
        assert row["aggregation_error"] < delta
        assert row["cycles"] <= row["cycle_bound"] + CYCLE_BOUND_SLACK
