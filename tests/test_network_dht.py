"""Chord ring: placement, ownership, routing, membership changes."""

import pytest

from repro.errors import NetworkError, UnknownNodeError, ValidationError
from repro.network.dht import ChordRing


@pytest.fixture
def ring():
    return ChordRing(range(32), bits=16)


class TestConstruction:
    def test_all_nodes_placed(self, ring):
        assert len(ring) == 32
        assert set(ring.nodes) == set(range(32))

    def test_ring_ids_unique(self, ring):
        rids = [ring.ring_id(i) for i in range(32)]
        assert len(set(rids)) == 32

    def test_collisions_resolved_at_tiny_bits(self):
        # 3-bit ring has 8 positions; 8 nodes force salting.
        ring = ChordRing(range(8), bits=3)
        assert len(ring) == 8

    def test_rejects_empty_or_bad_bits(self):
        with pytest.raises(ValidationError):
            ChordRing([], bits=16)
        with pytest.raises(ValidationError):
            ChordRing([0], bits=2)

    def test_rejects_duplicate_node(self):
        with pytest.raises(NetworkError):
            ChordRing([1, 1])


class TestOwnership:
    def test_owner_is_successor_of_key(self, ring):
        key = "some-file"
        owner = ring.owner(key)
        kid = ring.key_id(key)
        # No other node lies in (kid, owner_rid) clockwise.
        orid = ring.ring_id(owner)
        for node in ring.nodes:
            rid = ring.ring_id(node)
            if rid == orid:
                continue
            in_between = (
                kid <= rid < orid
                if kid <= orid
                else (rid >= kid or rid < orid)
            )
            assert not in_between

    def test_owner_deterministic(self, ring):
        assert ring.owner("k") == ring.owner("k")

    def test_keys_spread_over_nodes(self, ring):
        owners = {ring.owner(("key", i)) for i in range(500)}
        assert len(owners) > 16  # at least half the ring gets keys


class TestLookup:
    def test_lookup_finds_owner_from_any_start(self, ring):
        key = ("score", 17)
        expected = ring.owner(key)
        for start in range(0, 32, 5):
            res = ring.lookup(start, key)
            assert res.owner == expected
            assert res.path[0] == start
            assert res.path[-1] == expected

    def test_lookup_hops_logarithmic(self):
        ring = ChordRing(range(256), bits=32)
        total = 0
        for i in range(100):
            total += ring.lookup(i % 256, ("k", i)).hops
        mean_hops = total / 100
        assert mean_hops <= 2 * 8  # ~log2(256) with slack

    def test_lookup_from_owner_is_zero_hops_or_short(self, ring):
        key = "x"
        owner = ring.owner(key)
        assert ring.lookup(owner, key).hops == 0

    def test_lookup_unknown_start(self, ring):
        with pytest.raises(UnknownNodeError):
            ring.lookup(99, "k")


class TestMembership:
    def test_join_changes_ownership_consistently(self, ring):
        keys = [("f", i) for i in range(200)]
        before = {k: ring.owner(k) for k in keys}
        ring.join(100)
        moved = [k for k in keys if ring.owner(k) != before[k]]
        # Only keys now owned by the new node move.
        assert all(ring.owner(k) == 100 for k in moved)

    def test_leave_redistributes_keys(self, ring):
        key = "sticky"
        victim = ring.owner(key)
        ring.leave(victim)
        assert ring.owner(key) != victim
        assert victim not in ring.nodes

    def test_leave_unknown_node(self, ring):
        with pytest.raises(UnknownNodeError):
            ring.leave(999)

    def test_cannot_empty_ring(self):
        ring = ChordRing([5])
        with pytest.raises(NetworkError):
            ring.leave(5)

    def test_lookup_correct_after_churn(self, ring):
        ring.leave(3)
        ring.leave(7)
        ring.join(100)
        for start in ring.nodes[:5]:
            res = ring.lookup(start, "post-churn")
            assert res.owner == ring.owner("post-churn")
