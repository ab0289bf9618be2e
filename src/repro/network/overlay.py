"""Live overlay state: membership, neighbor tables, partner sampling.

An :class:`Overlay` starts from a static :class:`~repro.network.topology.Topology`
and then tracks dynamics: peers leave and rejoin (churn), and gossip
partners are sampled from the *live* population.  GossipTrust's random
partner choice ("choose a random node q", Algorithm 1 line 11) may pick
any live node, not only a direct neighbor — the paper allows "a neighbor
node or any other node" — so the overlay exposes both neighbor-restricted
and global sampling.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import NetworkError, UnknownNodeError, ValidationError
from repro.network.topology import Topology
from repro.utils.rng import SeedLike, as_generator

__all__ = ["Overlay"]


class Overlay:
    """Mutable overlay membership over a base topology.

    Parameters
    ----------
    topology:
        The initial overlay graph; all its nodes start alive.
    rng:
        Seed or generator for partner sampling and join wiring.
    """

    def __init__(self, topology: Topology, rng: SeedLike = None) -> None:
        self._topo = topology
        self._adj: List[Set[int]] = topology.adjacency_sets()
        self._alive: np.ndarray = np.ones(topology.n, dtype=bool)
        self._rng = as_generator(rng)
        self._alive_count = topology.n

    # -- membership -----------------------------------------------------

    @property
    def n(self) -> int:
        """Total node-id space (live + departed)."""
        return self._topo.n

    @property
    def alive_count(self) -> int:
        """Number of currently live nodes."""
        return self._alive_count

    def is_alive(self, node: int) -> bool:
        """Whether ``node`` is currently in the overlay."""
        self._check(node)
        return bool(self._alive[node])

    def alive_nodes(self) -> np.ndarray:
        """Array of live node ids, ascending."""
        return np.flatnonzero(self._alive)

    def alive_mask(self) -> np.ndarray:
        """Boolean liveness mask indexed by node id (copy)."""
        return self._alive.copy()

    @property
    def alive_view(self) -> np.ndarray:
        """The overlay's own liveness mask, without :meth:`alive_mask`'s copy.

        It changes as nodes leave and join; callers must not write it.
        """
        return self._alive

    def leave(self, node: int) -> None:
        """Remove ``node`` from the overlay (its edges become inactive)."""
        self._check(node)
        if not self._alive[node]:
            raise NetworkError(f"node {node} already left")
        self._alive[node] = False
        self._alive_count -= 1

    def join(self, node: int, wire_to: Optional[Sequence[int]] = None, degree: int = 3) -> None:
        """Re-admit ``node``; wire it to given peers or to random live ones.

        A rejoining peer keeps its old edges (to whichever endpoints are
        live) and additionally wires to ``degree`` random live peers if
        ``wire_to`` is not given — modelling bootstrap via a host cache.
        """
        self._check(node)
        if self._alive[node]:
            raise NetworkError(f"node {node} is already alive")
        self._alive[node] = True
        self._alive_count += 1
        if wire_to is None:
            live = [v for v in self.alive_nodes().tolist() if v != node]
            if live:
                k = min(degree, len(live))
                wire_to = self._rng.choice(live, size=k, replace=False).tolist()
            else:
                wire_to = []
        for peer in wire_to:
            self._check(peer)
            if peer == node:
                raise ValidationError("cannot wire a node to itself")
            if not self._alive[peer]:
                raise NetworkError(f"cannot wire to departed node {peer}")
            self._adj[node].add(peer)
            self._adj[peer].add(node)

    # -- neighbor / partner queries --------------------------------------

    def neighbors(self, node: int, *, live_only: bool = True) -> Tuple[int, ...]:
        """Neighbor ids of ``node`` (live ones only by default)."""
        self._check(node)
        if live_only:
            return tuple(sorted(v for v in self._adj[node] if self._alive[v]))
        return tuple(sorted(self._adj[node]))

    def degree(self, node: int) -> int:
        """Number of live neighbors of ``node``."""
        return len(self.neighbors(node, live_only=True))

    def random_partner(self, node: int, *, neighbors_only: bool = False) -> Optional[int]:
        """Sample a gossip partner for ``node``.

        With ``neighbors_only=False`` (the paper's default semantics) the
        partner is uniform over all live nodes except ``node`` itself.
        Returns ``None`` when no candidate exists.
        """
        self._check(node)
        if neighbors_only:
            candidates = [v for v in self._adj[node] if self._alive[v]]
            if not candidates:
                return None
            return int(candidates[int(self._rng.integers(len(candidates)))])
        if self._alive_count <= 1:
            return None
        while True:
            pick = int(self._rng.integers(self.n))
            if pick != node and self._alive[pick]:
                return pick

    def random_partners(self, nodes: Sequence[int]) -> np.ndarray:
        """Global partners for many nodes: ``random_partner`` for each, in order.

        Returns the array ``[random_partner(v) for v in nodes]`` and
        leaves the RNG exactly where those successive calls leave it.
        Each pass draws one value per node still unassigned
        (``integers(n, size=k)`` is the stream of ``k`` scalar draws) and
        walks the draws in order: a dead pick is rejected, a self-pick
        too, and a rejected draw passes the turn to the next draw for
        the same node.  Every node consumes at least one draw, so a pass
        never draws a value the successive calls would not.  Raises
        :class:`~repro.errors.NetworkError` with fewer than two live
        nodes (where ``random_partner`` returns ``None``).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        n = self.n
        # a negative id wraps to a huge unsigned one: one max checks both ends
        if nodes.size and nodes.view(np.uint64).max() >= n:
            bad = nodes[(nodes < 0) | (nodes >= n)]
            raise UnknownNodeError(int(bad[0]))
        if self._alive_count <= 1:
            raise NetworkError("need >= 2 live nodes to gossip")
        # with every node alive no draw is dead: skip the liveness gather
        alive = None if self._alive_count == n else self._alive
        out = np.empty(nodes.size, dtype=np.int64)
        done = 0
        while done < nodes.size:
            draws = self._rng.integers(n, size=nodes.size - done)
            if alive is not None:
                draws = draws[alive[draws]]
            # there are never more live draws left than unassigned nodes
            while draws.size:
                clash = draws == nodes[done : done + draws.size]
                take = int(clash.argmax())
                if not clash[take]:
                    take = draws.size
                out[done : done + take] = draws[:take]
                done += take
                # drop the accepted draws and the self-pick that ended them
                draws = draws[take + 1 :]
        return out

    def live_subgraph(self) -> Topology:
        """The topology induced by live nodes (ids preserved)."""
        edges = [
            (u, v)
            for u in self.alive_nodes().tolist()
            for v in self._adj[u]
            if u < v and self._alive[v]
        ]
        return Topology(self.n, edges)

    def _check(self, node: int) -> None:
        if not 0 <= node < self._topo.n:
            raise UnknownNodeError(node)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Overlay(n={self.n}, alive={self._alive_count})"
