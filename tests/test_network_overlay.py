"""Overlay membership, partner sampling, live subgraphs."""

import numpy as np
import pytest

from repro.errors import NetworkError, UnknownNodeError
from repro.network.overlay import Overlay
from repro.network.topology import Topology, random_graph


@pytest.fixture
def line_overlay():
    return Overlay(Topology(4, [(0, 1), (1, 2), (2, 3)]), rng=0)


class TestMembership:
    def test_all_alive_initially(self, line_overlay):
        assert line_overlay.alive_count == 4
        assert line_overlay.alive_nodes().tolist() == [0, 1, 2, 3]
        assert line_overlay.is_alive(2)

    def test_leave_and_counts(self, line_overlay):
        line_overlay.leave(1)
        assert line_overlay.alive_count == 3
        assert not line_overlay.is_alive(1)
        assert line_overlay.alive_nodes().tolist() == [0, 2, 3]

    def test_leave_twice_rejected(self, line_overlay):
        line_overlay.leave(1)
        with pytest.raises(NetworkError):
            line_overlay.leave(1)

    def test_unknown_node(self, line_overlay):
        with pytest.raises(UnknownNodeError):
            line_overlay.is_alive(10)

    def test_join_restores_with_old_edges(self, line_overlay):
        line_overlay.leave(1)
        line_overlay.join(1)
        assert line_overlay.is_alive(1)
        # Old edges to live endpoints come back.
        assert 0 in line_overlay.neighbors(1)
        assert 2 in line_overlay.neighbors(1)

    def test_join_alive_node_rejected(self, line_overlay):
        with pytest.raises(NetworkError):
            line_overlay.join(0)

    def test_join_wires_to_random_live_peers(self):
        ov = Overlay(Topology(10, [(i, (i + 1) % 10) for i in range(10)]), rng=1)
        ov.leave(5)
        ov.join(5)
        assert len(ov.neighbors(5)) >= 3  # old ring edges plus bootstrap wiring

    def test_join_rejects_wiring_to_departed(self, line_overlay):
        line_overlay.leave(0)
        line_overlay.leave(1)
        line_overlay.join(1)
        # bootstrap wiring draws from the live peers {2, 3} only
        assert line_overlay.neighbors(1) == (2, 3)
        assert line_overlay.neighbors(1, live_only=False) == (0, 2, 3)

    def test_join_rejects_self_wire(self, line_overlay):
        line_overlay.leave(1)
        line_overlay.join(1)
        assert 1 not in line_overlay.neighbors(1, live_only=False)


class TestNeighbors:
    def test_live_only_filtering(self, line_overlay):
        assert line_overlay.neighbors(1) == (0, 2)
        line_overlay.leave(2)
        assert line_overlay.neighbors(1) == (0,)
        assert line_overlay.neighbors(1, live_only=False) == (0, 2)


class TestPartnerSampling:
    def test_global_partner_is_live_and_not_self(self):
        ov = Overlay(random_graph(20, rng=0), rng=1)
        ov.leave(3)
        for _ in range(50):
            p = ov.random_partner(0)
            assert p != 0
            assert p != 3

    def test_neighbors_only_partner(self, line_overlay):
        for _ in range(10):
            assert line_overlay.random_partner(0, neighbors_only=True) == 1

    def test_neighbors_only_none_when_isolated(self, line_overlay):
        line_overlay.leave(1)
        assert line_overlay.random_partner(0, neighbors_only=True) is None

    def test_global_none_when_alone(self):
        ov = Overlay(Topology(2, [(0, 1)]), rng=0)
        ov.leave(1)
        assert ov.random_partner(0) is None

    def test_vectorized_partners(self):
        ov = Overlay(random_graph(30, rng=2), rng=3)
        nodes = ov.alive_nodes()
        partners = ov.random_partners(nodes)
        assert partners.shape == nodes.shape
        assert not np.any(partners == nodes)
        assert all(ov.is_alive(int(p)) for p in partners)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_partners_replays_successive_calls(self, seed):
        # n=4 with one dead node: a quarter of the draws pick the node
        # itself and a quarter the dead one, so both rejections occur.
        def build():
            ov = Overlay(Topology(4, [(0, 1), (1, 2), (2, 3)]), rng=seed)
            ov.leave(3)
            return ov

        batched, successive = build(), build()
        before = batched._rng.bit_generator.state
        nodes = np.array([0, 1, 2, 3, 2, 1, 0] * 5)  # a dead requester too
        picks = batched.random_partners(nodes)
        expected = [successive.random_partner(int(v)) for v in nodes]
        assert picks.tolist() == expected
        assert batched._rng.bit_generator.state == successive._rng.bit_generator.state
        # replay the raw stream: the walk above rejected both kinds of pick
        clone = np.random.Generator(np.random.PCG64())
        clone.bit_generator.state = before
        stream = iter(clone.integers(4, size=200).tolist())
        rejected = set()
        for node in nodes.tolist():
            for pick in stream:
                if pick == node:
                    rejected.add("self")
                elif pick == 3:
                    rejected.add("dead")
                else:
                    break
        assert rejected == {"self", "dead"}

    @pytest.mark.parametrize("dead", [(), (5,)], ids=["all-alive", "after-leave"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_partners_replay_the_raw_stream(self, dead, seed):
        # With every node alive no liveness gather runs and only
        # self-picks are rejected; after a leave dead picks are too.
        def build():
            ov = Overlay(random_graph(8, rng=2), rng=seed)
            for node in dead:
                ov.leave(node)
            return ov

        batched, successive = build(), build()
        nodes = batched.alive_nodes().repeat(12)
        before = batched._rng.bit_generator.state
        picks = batched.random_partners(nodes)
        assert picks.tolist() == [successive.random_partner(int(v)) for v in nodes]
        assert batched._rng.bit_generator.state == successive._rng.bit_generator.state
        # replay the raw stream: the kinds of pick the walk above rejected
        clone = np.random.Generator(np.random.PCG64())
        clone.bit_generator.state = before
        stream = iter(clone.integers(8, size=50 * nodes.size).tolist())
        rejected = set()
        for node in nodes.tolist():
            for pick in stream:
                if pick == node:
                    rejected.add("self")
                elif pick in dead:
                    rejected.add("dead")
                else:
                    break
        assert rejected == ({"self", "dead"} if dead else {"self"})

    def test_random_partners_matches_at_scale(self):
        batched = Overlay(random_graph(128, rng=2), rng=3)
        successive = Overlay(random_graph(128, rng=2), rng=3)
        for ov in (batched, successive):
            for node in range(0, 128, 5):
                ov.leave(node)
        nodes = batched.alive_nodes()
        for _ in range(20):
            expected = [successive.random_partner(int(v)) for v in nodes]
            assert batched.random_partners(nodes).tolist() == expected
        assert batched._rng.bit_generator.state == successive._rng.bit_generator.state

    def test_random_partners_of_no_nodes_draws_nothing(self):
        ov = Overlay(random_graph(10, rng=2), rng=3)
        before = ov._rng.bit_generator.state
        assert ov.random_partners(np.array([], dtype=np.int64)).size == 0
        assert ov._rng.bit_generator.state == before

    def test_vectorized_partners_requires_two_live(self):
        ov = Overlay(Topology(2, [(0, 1)]), rng=0)
        ov.leave(1)
        with pytest.raises(NetworkError):
            ov.random_partners(np.array([0]))

    def test_random_partners_rejects_unknown_nodes(self):
        ov = Overlay(random_graph(10, rng=2), rng=3)
        with pytest.raises(UnknownNodeError):
            ov.random_partners(np.array([0, 10]))

    def test_partner_distribution_roughly_uniform(self):
        ov = Overlay(random_graph(5, avg_degree=3.0, rng=4), rng=5)
        counts = {i: 0 for i in range(1, 5)}
        for _ in range(4000):
            counts[ov.random_partner(0)] += 1
        freqs = np.array(list(counts.values())) / 4000
        assert np.all(np.abs(freqs - 0.25) < 0.05)


class TestLiveSubgraph:
    def test_live_subgraph_excludes_departed(self, line_overlay):
        line_overlay.leave(1)
        sub = line_overlay.live_subgraph()
        assert 1 not in sub.neighbors(0)
        assert 3 in sub.neighbors(2)

