"""A Chord-like DHT ring.

The baselines GossipTrust is compared against (EigenTrust, PowerTrust)
"rely on the DHT mechanism to achieve scalability" (§2), and §7 notes
GossipTrust itself can be accelerated on a structured overlay.  This
module provides that substrate: consistent hashing on an ``m``-bit
identifier circle, finger tables, and O(log n) iterative lookup with hop
accounting.

Simplifications appropriate to a simulation substrate (documented, not
hidden): joins and leaves trigger a full finger-table rebuild for the
affected ring (O(n log n)) instead of running Chord's stabilization
protocol; lookups are computed synchronously and return hop counts
rather than scheduling per-hop messages.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import NetworkError, UnknownNodeError, ValidationError

__all__ = ["LookupResult", "ChordRing"]


@dataclass(frozen=True)
class LookupResult:
    """Result of a DHT lookup."""

    #: node (external id) responsible for the key
    owner: int
    #: ring hops taken from the issuing node to the owner
    hops: int
    #: path of external node ids traversed (including start and owner)
    path: Tuple[int, ...]


def _sha1_int(data: bytes, bits: int) -> int:
    """First ``bits`` bits of SHA-1(data) as an integer."""
    digest = hashlib.sha1(data).digest()
    return int.from_bytes(digest, "big") >> (160 - bits)


class ChordRing:
    """Chord identifier circle over external node ids.

    Parameters
    ----------
    nodes:
        External node ids to place on the ring (e.g. overlay indices).
    bits:
        Identifier width ``m``; the ring has ``2**m`` positions.

    Notes
    -----
    Ring ids are derived with SHA-1 so placement is deterministic across
    runs.  Hash collisions between nodes are resolved by salting with a
    collision counter (vanishingly rare at ``bits >= 32`` but handled so
    small test rings with tiny ``bits`` stay correct).
    """

    def __init__(self, nodes: Sequence[int], bits: int = 32) -> None:
        if bits < 3 or bits > 160:
            raise ValidationError(f"bits must be in [3, 160], got {bits}")
        if not nodes:
            raise ValidationError("ring needs at least one node")
        self.bits = int(bits)
        self.size = 1 << self.bits
        self._ring_of: Dict[int, int] = {}
        self._node_of: Dict[int, int] = {}
        for node in nodes:
            self._place(int(node))
        self._rebuild()

    # -- membership ------------------------------------------------------

    def _place(self, node: int) -> None:
        if node in self._ring_of:
            raise NetworkError(f"node {node} already on ring")
        salt = 0
        while True:
            rid = _sha1_int(f"node:{node}:{salt}".encode(), self.bits)
            if rid not in self._node_of:
                break
            salt += 1
        self._ring_of[node] = rid
        self._node_of[rid] = node

    def _rebuild(self) -> None:
        """Recompute the sorted ring and every finger table."""
        self._sorted_rids: List[int] = sorted(self._node_of)
        self._fingers: Dict[int, List[int]] = {}
        for rid in self._sorted_rids:
            fingers = []
            for i in range(self.bits):
                start = (rid + (1 << i)) % self.size
                fingers.append(self._successor_rid(start))
            self._fingers[rid] = fingers

    def join(self, node: int) -> None:
        """Add ``node`` to the ring and rebuild routing state."""
        self._place(int(node))
        self._rebuild()

    def leave(self, node: int) -> None:
        """Remove ``node`` from the ring and rebuild routing state."""
        rid = self._ring_of.pop(int(node), None)
        if rid is None:
            raise UnknownNodeError(node)
        del self._node_of[rid]
        if not self._node_of:
            raise NetworkError("cannot remove the last ring node")
        self._rebuild()

    @property
    def nodes(self) -> Tuple[int, ...]:
        """External ids currently on the ring, in ring order."""
        return tuple(self._node_of[rid] for rid in self._sorted_rids)

    def ring_id(self, node: int) -> int:
        """Ring position of an external node id."""
        try:
            return self._ring_of[int(node)]
        except KeyError:
            raise UnknownNodeError(node) from None

    # -- key placement -----------------------------------------------------

    def key_id(self, key: object) -> int:
        """Ring position of an arbitrary hashable key."""
        return _sha1_int(f"key:{key!r}".encode(), self.bits)

    def _successor_rid(self, point: int) -> int:
        """First node ring-id at or clockwise after ``point``."""
        idx = bisect_left(self._sorted_rids, point)
        if idx == len(self._sorted_rids):
            idx = 0
        return self._sorted_rids[idx]

    def owner(self, key: object) -> int:
        """External id of the node responsible for ``key`` (successor rule)."""
        return self._node_of[self._successor_rid(self.key_id(key))]

    # -- routing ---------------------------------------------------------

    @staticmethod
    def _in_interval(x: int, a: int, b: int, size: int) -> bool:
        """Whether x lies in the clockwise-open interval (a, b] on the circle."""
        if a == b:
            return True  # full circle
        if a < b:
            return a < x <= b
        return x > a or x <= b

    def lookup(self, start: int, key: object) -> LookupResult:
        """Iterative Chord lookup of ``key`` starting at node ``start``.

        Each hop forwards to the closest preceding finger of the target,
        exactly as in the Chord paper; hop count is O(log n) w.h.p.
        """
        start = int(start)
        if start not in self._ring_of:
            raise UnknownNodeError(start)
        target = self.key_id(key)
        owner_rid = self._successor_rid(target)
        current = self._ring_of[start]
        path = [start]
        hops = 0
        guard = 4 * self.bits + len(self._sorted_rids)
        while current != owner_rid:
            if self._in_interval(owner_rid, current, self._fingers[current][0], self.size):
                nxt = self._fingers[current][0]  # immediate successor owns it
            else:
                nxt = self._closest_preceding(current, target)
                if nxt == current:
                    nxt = self._fingers[current][0]
            current = nxt
            hops += 1
            path.append(self._node_of[current])
            if hops > guard:  # pragma: no cover - routing invariant violated
                raise NetworkError("lookup failed to converge; ring state corrupt")
        return LookupResult(owner=self._node_of[owner_rid], hops=hops, path=tuple(path))

    def _closest_preceding(self, current: int, target: int) -> int:
        for finger in reversed(self._fingers[current]):
            if finger != current and self._in_interval(
                finger, current, (target - 1) % self.size, self.size
            ):
                return finger
        return current

    def __len__(self) -> int:
        return len(self._node_of)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ChordRing(nodes={len(self)}, bits={self.bits})"
