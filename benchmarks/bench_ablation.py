"""Ablation benches for the design choices DESIGN.md calls out.

* probe vs full engine — the probe-column substitution must not change
  measured step counts or the output vector's ranking;
* power-node count q — more power nodes help against attacks up to a
  point, mirroring the alpha sweep of Fig. 4(a);
* look-ahead random walk — PowerTrust's LRW halves iteration counts;
* neighbor-restricted vs global gossip partners — global mixing (the
  paper's default) converges at least as fast as neighbor-only.
"""

import numpy as np

from repro.core.aggregation import exact_global_reputation
from repro.core.config import GossipTrustConfig
from repro.baselines.powertrust import PowerTrust
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.message_engine import MessageGossipEngine
from repro.gossip.partnering import NeighborSampler
from repro.metrics.errors import kendall_tau, rms_relative_error
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like
from repro.network.transport import Transport
from repro.peers.threat_models import build_independent_scenario
from repro.sim.engine import Simulator
from repro.utils.rng import RngStreams


def test_ablation_probe_vs_full_agreement(benchmark):
    """Probe mode is a measurement substitution, not a protocol change."""
    n = 600
    streams = RngStreams(0)
    S = synthetic_trust_matrix(n, rng=streams.get("m"))
    v = np.full(n, 1.0 / n)

    def run():
        full = SynchronousGossipEngine(n, epsilon=1e-4, mode="full", rng=1)
        probe = SynchronousGossipEngine(
            n, epsilon=1e-4, mode="probe", rng=1
        )
        return full.run_cycle(S, v), probe.run_cycle(S, v)

    full_res, probe_res = benchmark.pedantic(run, rounds=1, iterations=1)
    # Step counts agree within a small band.
    assert abs(full_res.steps - probe_res.steps) <= max(6, 0.25 * full_res.steps)
    # Full-mode gossiped vector preserves the exact ranking.
    assert kendall_tau(full_res.exact, full_res.v_next) > 0.99


def test_ablation_power_node_count(benchmark, save_result):
    """Sweep q at fixed gamma: some power nodes help, too many dilute."""
    from repro.experiments.base import ExperimentResult
    from repro.metrics.reporting import Series

    n, gamma = 600, 0.25
    fractions = (0.0, 0.005, 0.01, 0.05, 0.2)

    def two_rounds(S, cfg):
        # The system's actual procedure: round 1 selects the anchors
        # (so q genuinely matters), round 2 aggregates with them fixed.
        first = exact_global_reputation(S, cfg, raise_on_budget=False)
        return exact_global_reputation(
            S, cfg, power_nodes=first.power_nodes, raise_on_budget=False
        ).vector

    def run():
        series = Series(label="rms vs power fraction")
        for frac in fractions:
            vals = []
            for seed in range(3):
                streams = RngStreams(seed)
                sc = build_independent_scenario(n, gamma, rng=streams.get("sc"))
                alpha = 0.15 if frac > 0 else 0.0
                cfg = GossipTrustConfig(
                    n=n, alpha=alpha, power_node_fraction=frac or 0.01,
                    max_cycles=60,
                )
                v = two_rounds(sc.S_true, cfg)
                u = two_rounds(sc.S_attacked, cfg)
                vals.append(rms_relative_error(v, u, cap=10.0))
            series.add(frac, float(np.mean(vals)))
        return ExperimentResult(
            experiment_id="ablation_q",
            title="RMS error vs power-node fraction (gamma=0.25, two-round procedure)",
            series=[series],
            data=dict(zip(series.x, series.y)),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result)
    # Having power nodes (1%) beats having none.
    assert result.data[0.01] < result.data[0.0]
    # The sweep is a real sweep: q changes the outcome.
    positive = [result.data[f] for f in fractions if f > 0]
    assert max(positive) - min(positive) > 1e-6


def test_ablation_lrw_speedup(benchmark):
    """PowerTrust's look-ahead random walk roughly halves iterations."""
    n = 400
    S = synthetic_trust_matrix(n, rng=RngStreams(2).get("m"))

    def run():
        with_lrw = PowerTrust(S, lookahead=True, alpha=1e-9, ring_bits=None).compute()
        without = PowerTrust(S, lookahead=False, alpha=1e-9, ring_bits=None).compute()
        return with_lrw, without

    with_lrw, without = benchmark.pedantic(run, rounds=1, iterations=1)
    assert with_lrw.iterations <= 0.7 * without.iterations
    assert np.allclose(with_lrw.vector, without.vector, atol=1e-6)


def test_ablation_topology_family(benchmark, save_result):
    """Neighbor-restricted gossip feels graph conductance; global doesn't.

    Runs the message engine with a NeighborSampler over the three
    topology families.  Expectation: the Gnutella-like (power-law) and
    random graphs — good expanders — converge in similar round counts,
    while a barely-rewired small-world ring (beta = 0.02, high diameter,
    poor conductance) needs materially more; global partner choice is
    immune to the family.
    """
    import numpy as np

    from repro.experiments.base import ExperimentResult
    from repro.metrics.reporting import TextTable
    from repro.network.topology import random_graph, small_world_graph

    n = 64
    streams = RngStreams(7)
    S = synthetic_trust_matrix(n, rng=streams.get("m"))
    v = np.full(n, 1.0 / n)

    def run_on(topo, seed, neighbors_only=True):
        sim = Simulator()
        overlay = Overlay(topo, rng=seed + 1)
        transport = Transport(sim, latency=0.4, rng=seed + 2)
        engine = MessageGossipEngine(
            sim, transport, overlay, epsilon=1e-5, round_interval=1.0,
            partnering=NeighborSampler() if neighbors_only else None,
            rng=seed + 3, max_rounds=800,
        )
        return engine.run_cycle(S, v).steps

    def run():
        families = {
            "gnutella(BA)": lambda s: gnutella_like(n, rng=s),
            "random(ER)": lambda s: random_graph(n, avg_degree=6.0, rng=s),
            "ring(WS b=0.02)": lambda s: small_world_graph(n, k=4, beta=0.02, rng=s),
        }
        table = TextTable(
            ["family", "neighbor_rounds", "global_rounds"],
            title=f"Gossip rounds by overlay family (n={n})",
        )
        data = {}
        for name, make in families.items():
            neigh = float(np.mean([run_on(make(s), s * 10) for s in (1, 2, 3)]))
            glob = float(
                np.mean(
                    [run_on(make(s), s * 10, neighbors_only=False) for s in (1, 2, 3)]
                )
            )
            table.add_row([name, neigh, glob])
            data[name] = {"neighbor": neigh, "global": glob}
        return ExperimentResult(
            experiment_id="ablation_topology",
            title="Topology-family sensitivity of neighbor-restricted gossip",
            tables=[table],
            data=data,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result)
    # Poor-conductance rings pay for neighbor restriction...
    assert (
        result.data["ring(WS b=0.02)"]["neighbor"]
        > 1.3 * result.data["gnutella(BA)"]["neighbor"]
    )
    # ...while global partner choice is family-agnostic.
    globals_ = [row["global"] for row in result.data.values()]
    assert max(globals_) - min(globals_) < 12


def test_ablation_partner_scope(benchmark):
    """Global partner choice mixes at least as fast as neighbor-only."""
    n = 64
    streams = RngStreams(3)
    S = synthetic_trust_matrix(n, rng=streams.get("m"))
    v = np.full(n, 1.0 / n)

    def run_mode(neighbors_only, seed):
        sim = Simulator()
        overlay = Overlay(gnutella_like(n, rng=seed), rng=seed + 1)
        transport = Transport(sim, latency=0.4, rng=seed + 2)
        engine = MessageGossipEngine(
            sim, transport, overlay, epsilon=1e-5, round_interval=1.0,
            partnering=NeighborSampler() if neighbors_only else None,
            rng=seed + 3, max_rounds=400,
        )
        return engine.run_cycle(S, v)

    def run():
        glob = [run_mode(False, s).steps for s in (10, 20, 30)]
        neigh = [run_mode(True, s).steps for s in (10, 20, 30)]
        return float(np.mean(glob)), float(np.mean(neigh))

    global_steps, neighbor_steps = benchmark.pedantic(run, rounds=1, iterations=1)
    assert global_steps <= neighbor_steps + 5


def test_ablation_async_vs_sync_gossip(benchmark):
    """Poisson-clock gossip costs the same per send as synchronous rounds.

    The classic asynchronous-gossip result: removing the global round
    clock does not change the per-send convergence cost.  Measured as
    equivalent rounds (sends per node) at matched epsilon.
    """
    import numpy as np

    from repro.gossip.message_engine import AsyncMessageGossipEngine

    n = 48
    streams = RngStreams(5)
    S = synthetic_trust_matrix(n, rng=streams.get("m"))
    v = np.full(n, 1.0 / n)

    def sync_rounds(seed):
        sim = Simulator()
        overlay = Overlay(gnutella_like(n, rng=seed), rng=seed + 1)
        transport = Transport(sim, latency=0.3, rng=seed + 2)
        engine = MessageGossipEngine(
            sim, transport, overlay, epsilon=1e-5, round_interval=1.0, rng=seed + 3
        )
        return engine.run_cycle(S, v).steps

    def async_rounds(seed):
        sim = Simulator()
        overlay = Overlay(gnutella_like(n, rng=seed), rng=seed + 1)
        transport = Transport(sim, latency=0.3, rng=seed + 2)
        engine = AsyncMessageGossipEngine(
            sim, transport, overlay, epsilon=1e-5, rng=seed + 3
        )
        res = engine.run_cycle(S, v)
        assert res.converged
        return res.steps

    def run():
        sync = float(np.mean([sync_rounds(s) for s in (11, 22, 33)]))
        asyn = float(np.mean([async_rounds(s) for s in (11, 22, 33)]))
        return sync, asyn

    sync, asyn = benchmark.pedantic(run, rounds=1, iterations=1)
    # Same order of magnitude; the async detector (coarser, time-based)
    # typically runs somewhat longer but never an order more.
    assert asyn < 4 * sync
    assert asyn > 0.5 * sync
