"""Bench: the extension experiments behind the §7 claims.

* fault tolerance — gossip error under message loss, link failures,
  and churn on the message-level engine;
* storage — Bloom reputation store memory/accuracy sweep;
* overhead — messages and DHT hops vs the EigenTrust/PowerTrust
  baselines.
"""

import math

from repro.experiments.fault_tolerance import run_fault_tolerance
from repro.experiments.overhead_comparison import run_overhead
from repro.experiments.storage_experiment import run_storage


def test_fault_tolerance(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: run_fault_tolerance(
            n=128,
            loss_rates=(0.0, 0.05, 0.10, 0.20, 0.30),
            link_failure_fractions=(0.0, 0.1, 0.2),
            departure_counts=(0, 8, 16),
            repeats=10,
        ),
        rounds=1,
        iterations=1,
    )
    save_result(result)
    data = result.data
    # Each cell is a median over seeds 0-9; "<cell>/seeds" holds them.
    # Fault-free gossip is essentially exact on every seed.
    assert max(data["loss/0/seeds"]) < 1e-3
    # Error grows with loss, and every seed ends with finite estimates.
    # The 30% median stays below 1, but one seed in ten does not: seed 6
    # reads 1.80.  At 30% loss every seed keeps under 0.02% of its mass.
    assert data["loss/0.05"] < data["loss/0.3"] < 1.0
    assert all(math.isfinite(err) for err in data["loss/0.3/seeds"])
    # Random-partner gossip with 20% of the overlay links cut loses less
    # than 5% message loss does, on every seed (the link maximum is
    # 0.068, the loss minimum 0.137).  The cut costs a median error of
    # 0.06, so it is tolerated, not free.
    assert max(data["link/0.2/seeds"]) < min(data["loss/0.05/seeds"])
    # Churn of 16/128 nodes mid-cycle perturbs but does not break.
    assert data["churn/16"] < 0.5


def test_storage_efficiency(benchmark, save_result):
    bits = (3, 4, 5, 6, 7, 8)
    result = benchmark.pedantic(
        lambda: run_storage(n=1000, bracket_bits=bits, repeats=10),
        rounds=1,
        iterations=1,
    )
    save_result(result)
    # Each cell is a median over seeds 0-9.
    # Finer brackets -> lower quantization error, monotonically.
    errs = [result.data[str(b)]["mean_rel_error"] for b in bits]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    # The store compresses vs a raw score table at every width measured
    # (8 bits: 1.62x, 3 bits: 4.58x).
    assert all(result.data[str(b)]["compression"] > 1.0 for b in bits)
    # At 8 bits top-10 selection survives quantization on every seed
    # (median 0.9, per seed 0.8-1.0): filters sized for the whole lookup
    # keep Bloom false positives from lifting nodes into the top bracket.
    assert min(result.data["8"]["top_k_overlap/seeds"]) >= 0.8


def test_overhead_vs_dht_baselines(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: run_overhead(sizes=(200, 500, 1000), repeats=2),
        rounds=1,
        iterations=1,
    )
    save_result(result)
    for n in (200, 500, 1000):
        row = result.data[str(n)]
        # Gossip aggregation ships fewer messages than replicated
        # DHT score management at every size.
        assert row["gossip_messages"] < row["eigentrust_messages"]
