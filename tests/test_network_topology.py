"""Topology generators: structure, connectivity, degree laws.

networkx is used here purely as an oracle for connectivity/degree
checks — the generators themselves are from scratch.
"""

import networkx as nx
import numpy as np
import pytest

from repro.errors import ValidationError
from repro.network.topology import (
    Topology,
    gnutella_like,
    powerlaw_graph,
    random_graph,
    small_world_graph,
)


def to_nx(topo: Topology) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(topo.n))
    g.add_edges_from(topo.edges())
    return g


def _degrees(t: Topology) -> np.ndarray:
    return np.array([len(t.neighbors(i)) for i in range(t.n)])


class TestTopology:
    def test_basic_accessors(self):
        t = Topology(4, [(0, 1), (1, 2), (2, 3)])
        assert t.n == 4
        assert len(list(t.edges())) == 3
        assert t.neighbors(1) == (0, 2)
        assert len(t.neighbors(0)) == 1
        assert 3 in t.neighbors(2) and 2 in t.neighbors(3)
        assert 3 not in t.neighbors(0)

    def test_duplicate_edges_collapse(self):
        t = Topology(3, [(0, 1), (1, 0), (0, 1)])
        assert list(t.edges()) == [(0, 1)]

    def test_rejects_self_loops_and_out_of_range(self):
        with pytest.raises(ValidationError):
            Topology(3, [(1, 1)])
        with pytest.raises(ValidationError):
            Topology(3, [(0, 3)])
        with pytest.raises(ValidationError):
            Topology(0, [])

    def test_components_and_connectivity(self):
        t = Topology(5, [(0, 1), (2, 3)])
        comps = t.components()
        assert len(comps) == 3
        assert len(Topology(3, [(0, 1), (1, 2)]).components()) == 1

    def test_components_sorted_largest_first(self):
        t = Topology(6, [(0, 1), (1, 2), (3, 4)])
        comps = t.components()
        assert len(comps[0]) >= len(comps[1]) >= len(comps[2])

    def test_degrees_array(self):
        t = Topology(3, [(0, 1), (0, 2)])
        assert _degrees(t).tolist() == [2, 1, 1]

    def test_edges_iterates_each_once(self):
        t = Topology(3, [(0, 1), (1, 2), (0, 2)])
        edges = list(t.edges())
        assert len(edges) == 3
        assert all(u < v for u, v in edges)

    def test_single_node(self):
        t = Topology(1, [])
        assert len(t.components()) == 1
        assert list(t.edges()) == []


class TestRandomGraph:
    def test_connected(self):
        t = random_graph(100, avg_degree=4.0, rng=0)
        assert to_nx(t).number_of_nodes() == 100
        assert nx.is_connected(to_nx(t))

    def test_average_degree_close_to_target(self):
        t = random_graph(500, avg_degree=8.0, rng=1)
        assert _degrees(t).mean() == pytest.approx(8.0, rel=0.25)

    def test_deterministic(self):
        a = random_graph(50, rng=7)
        b = random_graph(50, rng=7)
        assert list(a.edges()) == list(b.edges())

    def test_rejects_bad_degree(self):
        with pytest.raises(ValidationError):
            random_graph(10, avg_degree=20.0)

    def test_single_node(self):
        assert random_graph(1).n == 1


class TestPowerlawGraph:
    def test_connected(self):
        t = powerlaw_graph(300, m=3, rng=2)
        assert nx.is_connected(to_nx(t))

    def test_degree_distribution_is_heavy_tailed(self):
        t = powerlaw_graph(2000, m=3, rng=3)
        degs = _degrees(t)
        # Hubs exist: max degree far above the median.
        assert degs.max() > 5 * np.median(degs)

    def test_average_degree_about_2m(self):
        t = powerlaw_graph(1000, m=4, rng=4)
        assert _degrees(t).mean() == pytest.approx(8.0, rel=0.15)

    def test_tiny_network_is_clique(self):
        t = powerlaw_graph(3, m=5, rng=0)
        assert len(list(t.edges())) == 3

    def test_rejects_bad_m(self):
        with pytest.raises(ValidationError):
            powerlaw_graph(10, m=0)


class TestSmallWorld:
    def test_connected_and_right_degree(self):
        t = small_world_graph(200, k=6, beta=0.1, rng=5)
        assert nx.is_connected(to_nx(t))
        assert _degrees(t).mean() == pytest.approx(6.0, rel=0.1)

    def test_beta_zero_is_ring_lattice(self):
        t = small_world_graph(20, k=4, beta=0.0, rng=0)
        assert all(d == 4 for d in _degrees(t))

    def test_beta_one_still_connected(self):
        t = small_world_graph(100, k=4, beta=1.0, rng=6)
        assert nx.is_connected(to_nx(t))

    def test_rejects_odd_k(self):
        with pytest.raises(ValidationError):
            small_world_graph(10, k=3)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValidationError):
            small_world_graph(10, k=4, beta=1.5)


class TestGnutellaLike:
    def test_connected_power_law(self):
        t = gnutella_like(1000, rng=8)
        assert nx.is_connected(to_nx(t))
        assert _degrees(t).mean() == pytest.approx(6.0, rel=0.2)

    def test_deterministic(self):
        assert list(gnutella_like(100, rng=9).edges()) == list(
            gnutella_like(100, rng=9).edges()
        )
