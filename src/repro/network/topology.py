"""Overlay graph generators, implemented from scratch.

The paper evaluates on "a Gnutella-like flat unstructured network";
measured Gnutella snapshots have power-law degree distributions, so
:func:`gnutella_like` defaults to a Barabási–Albert preferential-
attachment graph.  Erdős–Rényi and Watts–Strogatz generators are
provided for sensitivity studies (gossip convergence depends on graph
conductance, and these three families bracket the interesting range).

All generators return a :class:`Topology` — an immutable undirected
simple graph over nodes ``0..n-1`` — and guarantee connectivity by
patching any stray components with random bridge edges (gossip mixing
presupposes one component; the paper's overlays are connected).
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "Topology",
    "random_graph",
    "powerlaw_graph",
    "small_world_graph",
    "gnutella_like",
]

#: average degree of the paper's Gnutella-like overlay
_GNUTELLA_DEGREE = 6


class Topology:
    """An immutable undirected simple graph over nodes ``0..n-1``.

    Stores adjacency as tuples for cheap iteration and hashability of
    the overall structure; mutation happens only through the overlay
    layer, which copies adjacency into mutable sets.
    """

    __slots__ = ("_n", "_adj")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]) -> None:
        if n < 1:
            raise ValidationError(f"topology must have >= 1 node, got n={n}")
        adj: List[Set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValidationError(f"self-loop at node {u} not allowed")
            adj[u].add(v)
            adj[v].add(u)
        self._n = n
        self._adj: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(neigh)) for neigh in adj
        )

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Sorted neighbor ids of ``node``."""
        return self._adj[node]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u, neigh in enumerate(self._adj):
            for v in neigh:
                if u < v:
                    yield (u, v)

    # -- structure queries -------------------------------------------------

    def components(self) -> List[FrozenSet[int]]:
        """Connected components via BFS, largest first."""
        seen = [False] * self._n
        comps: List[FrozenSet[int]] = []
        for start in range(self._n):
            if seen[start]:
                continue
            queue = deque([start])
            seen[start] = True
            comp = [start]
            while queue:
                u = queue.popleft()
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        queue.append(v)
            comps.append(frozenset(comp))
        comps.sort(key=len, reverse=True)
        return comps

    def adjacency_sets(self) -> List[Set[int]]:
        """Mutable copy of adjacency (for the overlay layer)."""
        return [set(neigh) for neigh in self._adj]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Topology(n={self._n}, edges={sum(map(len, self._adj)) // 2})"


def _connect_components(n: int, edges: List[Tuple[int, int]], gen: np.random.Generator) -> List[Tuple[int, int]]:
    """Add random bridges so the edge list forms one component."""
    topo = Topology(n, edges)
    comps = topo.components()
    while len(comps) > 1:
        main = comps[0]
        for other in comps[1:]:
            u = int(gen.choice(sorted(main)))
            v = int(gen.choice(sorted(other)))
            edges.append((u, v))
        topo = Topology(n, edges)
        comps = topo.components()
    return edges


def random_graph(n: int, avg_degree: float = 6.0, rng: SeedLike = None) -> Topology:
    """Erdős–Rényi G(n, p) with ``p`` set to hit ``avg_degree``, made connected.

    Sampling is vectorized: we draw the upper-triangular adjacency mask
    in one call rather than looping over O(n^2) pairs.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if avg_degree < 0 or (n > 1 and avg_degree > n - 1):
        raise ValidationError(f"avg_degree must be in [0, n-1], got {avg_degree}")
    gen = as_generator(rng)
    if n == 1:
        return Topology(1, [])
    p = min(1.0, avg_degree / (n - 1))
    iu, ju = np.triu_indices(n, k=1)
    mask = gen.random(iu.shape[0]) < p
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
    edges = _connect_components(n, edges, gen)
    return Topology(n, edges)


def powerlaw_graph(n: int, m: int = 3, rng: SeedLike = None) -> Topology:
    """Barabási–Albert preferential attachment: each new node adds ``m`` edges.

    Uses the standard repeated-endpoint trick: attachment targets are
    drawn uniformly from the list of all edge endpoints so far, which
    realizes degree-proportional preference in O(1) per draw.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    gen = as_generator(rng)
    m = min(m, max(1, n - 1))
    if n <= m + 1:
        # Too small for attachment; return a clique.
        return Topology(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    # Seed: a connected ring over the first m+1 nodes.
    seed_nodes = m + 1
    edges: List[Tuple[int, int]] = [(i, (i + 1) % seed_nodes) for i in range(seed_nodes)]
    if seed_nodes == 2:
        edges = [(0, 1)]
    endpoints: List[int] = []
    for u, v in edges:
        endpoints.append(u)
        endpoints.append(v)
    for new in range(seed_nodes, n):
        targets: Set[int] = set()
        while len(targets) < m:
            pick = endpoints[int(gen.integers(len(endpoints)))]
            targets.add(pick)
        # Deterministic attachment order: set iteration would ride on
        # CPython's int-hash table layout, and endpoint order feeds the
        # next rounds' draws.
        for t in sorted(targets):
            edges.append((new, t))
            endpoints.append(new)
            endpoints.append(t)
    return Topology(n, edges)


def small_world_graph(n: int, k: int = 6, beta: float = 0.1, rng: SeedLike = None) -> Topology:
    """Watts–Strogatz ring lattice with rewiring probability ``beta``."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if k < 0 or k % 2 != 0:
        raise ValidationError(f"k must be a non-negative even integer, got {k}")
    if not 0.0 <= beta <= 1.0:
        raise ValidationError(f"beta must be in [0, 1], got {beta}")
    gen = as_generator(rng)
    if n <= k:
        return Topology(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    edge_set: Set[Tuple[int, int]] = set()
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            edge_set.add((min(u, v), max(u, v)))
    edges = sorted(edge_set)
    # Rewire the far endpoint of each lattice edge with probability beta.
    current: Set[Tuple[int, int]] = set(edges)
    for u, v in edges:
        if gen.random() >= beta:
            continue
        current.discard((u, v))
        # Pick a replacement avoiding self-loops and multi-edges.
        for _attempt in range(4 * n):
            w = int(gen.integers(n))
            cand = (min(u, w), max(u, w))
            if w != u and cand not in current:
                current.add(cand)
                break
        else:  # give up: restore the lattice edge
            current.add((u, v))
    final = _connect_components(n, sorted(current), gen)
    return Topology(n, final)


def gnutella_like(n: int, *, rng: SeedLike = None) -> Topology:
    """The paper's default overlay: flat, unstructured, power-law degrees.

    Built as Barabási–Albert with ``m = _GNUTELLA_DEGREE // 2`` (BA
    average degree is ``2m``).
    """
    return powerlaw_graph(n, m=max(1, _GNUTELLA_DEGREE // 2), rng=rng)
