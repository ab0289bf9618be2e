"""Partner selection strategies — from global oracle to partial views.

The paper's Algorithm 1 says "choose a random node q — a neighbor node
or any other node".  ``"global"`` and ``"neighbors"`` are the two
readings of that sentence; ``"brahms"`` adds a partial-view membership
protocol that must itself survive churn, loss, and partitions.  This
module lifts partner choice into a strategy interface with three
implementations:

====================  ======================================================
``"global"``          :class:`GlobalSampler` — uniform over all live nodes
                      (the historical default, bit-identical to the old
                      engine behaviour).
``"neighbors"``       :class:`NeighborSampler` — uniform over live overlay
                      neighbors (the paper's weakest reading).
``"brahms"``          :class:`BrahmsMembership` — push/pull view exchange
                      blended with min-wise history samplers
                      (Bortnikov et al., Brahms).
====================  ======================================================

The membership strategy runs *over the real transport*: push, pull and
probe messages ride the same lossy links as the gossip payload, and
failure detection is end-to-end (a reliable probe through
:class:`~repro.network.reliability.ReliableTransport` that exhausts its
retries).  Views may therefore contain dead peers — ``partner`` can
return one, the gossip half sent to it is lost, and the next probe
evicts it.  That is the degradation-and-repair loop the
``churn_resilience`` experiment measures.

Determinism: every draw comes from the strategy's own generator
(``rng``), consumed in simulator event order, so a seeded run replays
bit-for-bit across processes (the sweep-runner contract).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

import numpy as np

from repro.errors import ConfigurationError, NetworkError, ValidationError
from repro.network.overlay import Overlay
from repro.network.reliability import ReliableTransport
from repro.network.transport import Message, Transport
from repro.sim.engine import Simulator
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "ViewHealth",
    "PartnerStrategy",
    "GlobalSampler",
    "NeighborSampler",
    "BrahmsMembership",
    "strategy_names",
    "make_strategy",
]

_U64 = (1 << 64) - 1


def _mix64(seed: int, x: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer) for min-wise sampling.

    Python's builtin ``hash`` is salted per process; this is stable
    across processes, which the sweep runner's bit-determinism needs.
    """
    z = (seed + 0x9E3779B97F4A7C15 * (x + 1)) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


@dataclass(frozen=True)
class ViewHealth:
    """Snapshot of membership-layer health over the live population.

    ``mean_live_degree`` is the mean, over live nodes, of live peers in
    the node's partner view; ``isolated_live_nodes`` counts live nodes
    whose view holds no live peer at all (they can gossip with nobody);
    ``components`` is the number of weakly-connected components of the
    live view graph (1 = no eclipse/partition at the membership layer).
    """

    strategy: str
    live_nodes: int
    mean_live_degree: float
    isolated_live_nodes: int
    components: int
    evictions: int = 0
    promotions: int = 0
    rejoins: int = 0
    maintenance_messages: int = 0
    retries: int = 0
    gave_up: int = 0


def _components(live: Sequence[int], edges: Mapping[int, Sequence[int]]) -> int:
    """Weakly-connected components of the live view graph (union-find)."""
    parent: Dict[int, int] = {v: v for v in live}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    live_set = set(live)
    for u in live:
        for v in edges.get(u, ()):
            if v in live_set:
                ra, rb = find(u), find(v)
                if ra != rb:
                    parent[ra] = rb
    return len({find(v) for v in live}) if live else 0


class PartnerStrategy(ABC):
    """How a node picks its gossip partner (and learns who exists).

    Lifecycle: construct (pure parameters + RNG), :meth:`bind` to the
    simulation substrate (once, done by the engine), :meth:`start` /
    :meth:`stop` around each aggregation cycle (membership maintenance
    timers run only in between).  During a cycle the engine draws each
    live node's partner every round (:meth:`partner` per node, or
    :meth:`partners` for the whole round) and forwards every non-gossip
    transport message to :meth:`on_message`.
    """

    #: strategy name (``"global"``, ``"neighbors"``, ``"brahms"``)
    name: ClassVar[str] = ""

    def __init__(self, rng: SeedLike = None) -> None:
        self._rng = as_generator(rng)
        self.sim: Optional[Simulator] = None
        self.transport: Optional[Transport] = None
        self.overlay: Optional[Overlay] = None
        self._running = False
        # -- uniform health counters ------------------------------------
        self.evictions = 0
        self.promotions = 0
        self.rejoins = 0
        self.maintenance_messages = 0

    # -- lifecycle ---------------------------------------------------------

    def bind(self, sim: Simulator, transport: Transport, overlay: Overlay) -> None:
        """Attach to the simulation substrate (idempotent per substrate)."""
        if self.overlay is not None and self.overlay is not overlay:
            raise ValidationError(
                f"strategy {self.name!r} is already bound to another overlay"
            )
        self.sim = sim
        self.transport = transport
        self.overlay = overlay
        self._after_bind()

    def _after_bind(self) -> None:
        """Hook for subclasses to build initial views."""

    def start(self) -> None:
        """Begin maintenance (no-op for oracle strategies)."""
        self._running = True

    def stop(self) -> None:
        """Suspend maintenance timers."""
        self._running = False

    # -- the partner contract ---------------------------------------------

    @abstractmethod
    def partner(self, node: int) -> Optional[int]:
        """The gossip partner ``node`` sends its half-vector to.

        May return a departed peer (partial views go stale) — the
        engine's send then loses its mass, which is exactly the fault
        the membership layer later detects and repairs.  ``None`` means
        the node currently knows nobody.

        Contract: a call only reads the views and draws from the
        strategy's own RNG (the overlay's, for the oracle samplers).  It
        sends nothing, schedules nothing and never touches the
        transport's RNG.  The round-based message engine relies on this
        to draw every node's partner before it halves and sends: the
        split is bitwise-identical to drawing and sending node by node.
        """

    def partners(self, nodes: Sequence[int]) -> np.ndarray:
        """:meth:`partner` of every node in ``nodes``, drawn in that order.

        Returns an int64 array aligned with ``nodes``, ``-1`` where
        :meth:`partner` returns ``None``.  Same contract and the same
        draws as successive :meth:`partner` calls; a strategy overrides
        it only to draw a round at once.
        """
        partner = self.partner
        picks = [partner(node) for node in nodes]
        return np.array([-1 if p is None else p for p in picks], dtype=np.int64)

    @abstractmethod
    def view(self, node: int) -> Tuple[int, ...]:
        """The peer ids ``node`` currently draws partners from."""

    def on_message(self, msg: Message) -> bool:
        """Consume a membership/control message; ``False`` if not ours."""
        return False

    def node_joined(self, node: int) -> None:
        """Notify that ``node`` (re)joined the overlay — trigger (re)bootstrap."""

    # -- health ------------------------------------------------------------

    def retry_stats(self) -> Mapping[str, int]:
        """Reliability-wrapper counters (all zero for oracle strategies)."""
        return {"sent": 0, "retries": 0, "acked": 0, "gave_up": 0, "acks_sent": 0}

    def health(self) -> ViewHealth:
        """Compute the live-view health snapshot (O(live * view size))."""
        overlay = self._require_overlay()
        live = [int(v) for v in overlay.alive_nodes().tolist()]
        edges: Dict[int, Tuple[int, ...]] = {v: self.view(v) for v in live}
        live_set = set(live)
        degrees = [sum(1 for p in edges[v] if p in live_set) for v in live]
        stats = self.retry_stats()
        return ViewHealth(
            strategy=self.name,
            live_nodes=len(live),
            mean_live_degree=(sum(degrees) / len(degrees)) if degrees else 0.0,
            isolated_live_nodes=sum(1 for d in degrees if d == 0),
            components=_components(live, edges),
            evictions=self.evictions,
            promotions=self.promotions,
            rejoins=self.rejoins,
            maintenance_messages=self.maintenance_messages,
            retries=int(stats.get("retries", 0)),
            gave_up=int(stats.get("gave_up", 0)),
        )

    def _require_overlay(self) -> Overlay:
        if self.overlay is None:
            raise NetworkError(f"strategy {self.name!r} is not bound; call bind()")
        return self.overlay

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class GlobalSampler(PartnerStrategy):
    """Uniform over all live nodes — the omniscient-membership oracle.

    Delegates to :meth:`Overlay.random_partner` (a round at once to
    :meth:`Overlay.random_partners`, the same draws), consuming the
    overlay's own RNG stream, so engines built without an explicit
    strategy behave bit-for-bit as before this interface existed.
    """

    name = "global"

    def partner(self, node: int) -> Optional[int]:
        return self._require_overlay().random_partner(node)

    def partners(self, nodes: Sequence[int]) -> np.ndarray:
        # Overlay.random_partners draws the round as these partner() calls would.
        overlay = self._require_overlay()
        if overlay.alive_count <= 1:
            return np.full(len(nodes), -1, dtype=np.int64)
        return overlay.random_partners(nodes)

    def view(self, node: int) -> Tuple[int, ...]:
        overlay = self._require_overlay()
        return tuple(
            int(v) for v in overlay.alive_nodes().tolist() if int(v) != node
        )

    def health(self) -> ViewHealth:
        # Closed form: every live node sees every other live node.
        overlay = self._require_overlay()
        alive = overlay.alive_count
        return ViewHealth(
            strategy=self.name,
            live_nodes=alive,
            mean_live_degree=float(max(alive - 1, 0)),
            isolated_live_nodes=alive if alive == 1 else 0,
            components=1 if alive > 0 else 0,
        )


class NeighborSampler(PartnerStrategy):
    """Uniform over live overlay neighbors — the paper's weakest reading."""

    name = "neighbors"

    def partner(self, node: int) -> Optional[int]:
        return self._require_overlay().random_partner(node, neighbors_only=True)

    def view(self, node: int) -> Tuple[int, ...]:
        return self._require_overlay().neighbors(node, live_only=False)


class BrahmsMembership(PartnerStrategy):
    """Brahms-style push/pull view maintenance with history samplers.

    Each node keeps a view of ``view_size`` (l) peers.  Every
    ``interval`` it *pushes* its id to ``alpha``·l random view members
    and *pulls* the views of ``beta``·l others; at the next tick the view is
    recomputed as a blend of pushed ids, pulled ids, and the outputs of
    ``sampler_slots`` min-wise **history samplers** — uniform samples
    over every id ever observed, the component that resists targeted
    flooding (a pushed-id majority cannot take over the γ share).  One
    sampler output is probed (reliably) per tick; a failed probe resets
    the slot so dead history cannot pin the view to the past.  Probes
    use :class:`~repro.network.reliability.ReliableTransport`'s default
    ack timeout and retry budget.

    A node whose push/pull round yields nothing two ticks in a row
    re-bootstraps through the host-cache model, so crashes of an entire
    view cannot isolate a live node permanently.
    """

    name = "brahms"
    #: peers per view (l)
    view_size = 8
    #: push and pull shares of the view; the remainder (``1 - alpha -
    #: beta``) is the history samplers' share
    alpha = 0.45
    beta = 0.45
    #: simulated time between membership ticks
    interval = 4.0
    #: min-wise history samplers per node
    sampler_slots = 8

    def __init__(self, *, rng: SeedLike = None) -> None:
        super().__init__(rng)
        self.views: Dict[int, List[int]] = {}
        self._push_buf: Dict[int, Set[int]] = {}
        self._pull_buf: Dict[int, Set[int]] = {}
        self._dry_ticks: Dict[int, int] = {}
        # per node: list of (seed, best_priority, best_id or None)
        self._samplers: Dict[int, List[List[int]]] = {}
        self._reliable: Optional[ReliableTransport] = None

    # -- lifecycle ---------------------------------------------------------

    def _after_bind(self) -> None:
        assert self.transport is not None and self.overlay is not None
        self._reliable = ReliableTransport(
            self.transport,
            on_deliver=self._on_reliable,
            on_give_up=self._on_give_up,
        )
        overlay = self.overlay
        n = overlay.n
        live = [int(v) for v in overlay.alive_nodes().tolist()]
        self.views = {v: [] for v in range(n)}
        self._push_buf = {v: set() for v in range(n)}
        self._pull_buf = {v: set() for v in range(n)}
        self._dry_ticks = {v: 0 for v in range(n)}
        self._samplers = {
            v: [
                [int(self._rng.integers(1 << 62)), (1 << 64), -1]
                for _ in range(self.sampler_slots)
            ]
            for v in range(n)
        }
        for node in live:
            others = [v for v in live if v != node]
            if not others:
                continue
            k = min(self.view_size, len(others))
            picks = self._rng.choice(len(others), size=k, replace=False)
            self.views[node] = sorted(others[int(i)] for i in picks)
            for peer in self.views[node]:
                self._observe(node, peer)

    def start(self) -> None:
        was_running = self._running
        super().start()
        if not was_running:
            assert self.sim is not None
            self.sim.call_in(self.interval, self._tick)

    # -- partner contract --------------------------------------------------

    def partner(self, node: int) -> Optional[int]:
        view = self.views.get(node, [])
        if not view:
            return None
        return int(view[int(self._rng.integers(len(view)))])

    def view(self, node: int) -> Tuple[int, ...]:
        return tuple(self.views.get(node, ()))

    def retry_stats(self) -> Mapping[str, int]:
        r = self._reliable
        if r is None:
            return super().retry_stats()
        return {
            "sent": r.sent,
            "retries": r.retries,
            "acked": r.acked,
            "gave_up": r.gave_up,
            "acks_sent": r.acks_sent,
        }

    # -- the sampler -------------------------------------------------------

    def _observe(self, node: int, peer: int) -> None:
        """Feed one observed id through every min-wise sampler slot."""
        for slot in self._samplers[node]:
            priority = _mix64(slot[0], peer)
            if priority < slot[1]:
                slot[1] = priority
                slot[2] = peer

    def _sampler_ids(self, node: int) -> List[int]:
        return sorted({slot[2] for slot in self._samplers[node] if slot[2] >= 0})

    def _reset_slots_holding(self, node: int, peer: int) -> None:
        """A sampler output failed its probe: re-seed the slots holding it."""
        for slot in self._samplers[node]:
            if slot[2] == peer:
                slot[0] = int(self._rng.integers(1 << 62))
                slot[1] = 1 << 64
                slot[2] = -1
        for other in self.views.get(node, ()):
            if other != peer:
                self._observe(node, other)

    # -- maintenance -------------------------------------------------------

    def _share(self, fraction: float) -> int:
        return max(1, int(round(fraction * self.view_size)))

    def _tick(self) -> None:
        if not self._running:
            return
        assert self.sim is not None and self.overlay is not None
        assert self.transport is not None and self._reliable is not None
        for node in [int(v) for v in self.overlay.alive_nodes().tolist()]:
            self._recompute_view(node)
            view = self.views[node]
            if not view:
                self._bootstrap(node)
                continue
            for target in self._pick(view, self._share(self.alpha)):
                self.transport.send(node, target, None, kind="push", size=8)
                self.maintenance_messages += 1
            for target in self._pick(view, self._share(self.beta)):
                self.transport.send(node, target, None, kind="pull", size=8)
                self.maintenance_messages += 1
            probe_pool = self._sampler_ids(node)
            if probe_pool:
                probe_to = probe_pool[int(self._rng.integers(len(probe_pool)))]
                if probe_to != node:
                    self._reliable.send(node, probe_to, None, kind="probe", size=8)
        self.sim.call_in(self.interval, self._tick)

    def _pick(self, pool: Sequence[int], k: int) -> List[int]:
        k = min(k, len(pool))
        if k == 0:
            return []
        picks = self._rng.choice(len(pool), size=k, replace=False)
        return [int(pool[int(i)]) for i in picks]

    def _recompute_view(self, node: int) -> None:
        pushed = self._push_buf[node]
        pulled = self._pull_buf[node]
        if not pushed and not pulled:
            self._dry_ticks[node] += 1
            if self._dry_ticks[node] >= 2:
                self._bootstrap(node)
            return
        self._dry_ticks[node] = 0
        # Flood guard: an over-full push buffer (> the push share of the
        # view) means someone is shouting; keep the old view this round.
        if len(pushed) > max(2 * self._share(self.alpha), self.view_size):
            pushed.clear()
            pulled.clear()
            return
        candidates: List[int] = []
        candidates.extend(self._pick(sorted(pushed), self._share(self.alpha)))
        candidates.extend(self._pick(sorted(pulled - {node}), self._share(self.beta)))
        history = self._sampler_ids(node)
        gamma = self.view_size - self._share(self.alpha) - self._share(self.beta)
        candidates.extend(self._pick(history, max(gamma, 1)))
        merged: List[int] = []
        for peer in candidates + self.views[node]:
            if peer != node and peer not in merged:
                merged.append(peer)
            if len(merged) >= self.view_size:
                break
        if merged:
            self.views[node] = sorted(merged)
            self.promotions += 1
        pushed.clear()
        pulled.clear()

    def _bootstrap(self, node: int) -> None:
        """View and buffers drained: host-cache re-entry."""
        assert self.overlay is not None and self.transport is not None
        live = [int(v) for v in self.overlay.alive_nodes().tolist() if int(v) != node]
        if not live:
            return
        k = min(self.view_size, len(live))
        picks = self._rng.choice(len(live), size=k, replace=False)
        self.views[node] = sorted(live[int(i)] for i in picks)
        for peer in self.views[node]:
            self._observe(node, peer)
            self.transport.send(node, peer, None, kind="pull", size=8)
            self.maintenance_messages += 1
        self._dry_ticks[node] = 0
        self.rejoins += 1

    # -- message handling --------------------------------------------------

    def on_message(self, msg: Message) -> bool:
        assert self.overlay is not None
        if self._reliable is not None and msg.kind in ("ack", "reliable"):
            if not self.overlay.is_alive(msg.dst):
                return True
            return self._reliable.handle(msg)
        if msg.kind == "push":
            if self.overlay.is_alive(msg.dst):
                self._push_buf[msg.dst].add(msg.src)
                self._observe(msg.dst, msg.src)
            return True
        if msg.kind == "pull":
            if self.overlay.is_alive(msg.dst):
                assert self.transport is not None
                reply = tuple(self.views[msg.dst])
                self.transport.send(
                    msg.dst, msg.src, reply, kind="pull-reply", size=8 * len(reply)
                )
                self.maintenance_messages += 1
            return True
        if msg.kind == "pull-reply":
            if self.overlay.is_alive(msg.dst):
                for peer in msg.payload:
                    if peer != msg.dst:
                        self._pull_buf[msg.dst].add(peer)
                        self._observe(msg.dst, peer)
            return True
        return False

    def _on_reliable(self, msg: Message, kind: str, payload: Any) -> None:
        return  # probes need no action — the ack is the point

    def _on_give_up(self, src: int, dst: int, kind: str) -> None:
        assert self.overlay is not None
        if not self.overlay.is_alive(src):
            return
        view = self.views.get(src, [])
        if dst in view:
            view.remove(dst)
            self.evictions += 1
        self._reset_slots_holding(src, dst)

    def node_joined(self, node: int) -> None:
        """Churn rejoin: flush state and re-enter via the host cache."""
        self.views[node] = []
        self._push_buf[node] = set()
        self._pull_buf[node] = set()
        for slot in self._samplers[node]:
            slot[0] = int(self._rng.integers(1 << 62))
            slot[1] = 1 << 64
            slot[2] = -1
        self._bootstrap(node)


# -- strategy table -----------------------------------------------------------

_STRATEGIES: Dict[str, Type[PartnerStrategy]] = {
    cls.name: cls for cls in (GlobalSampler, NeighborSampler, BrahmsMembership)
}


def strategy_names() -> Tuple[str, ...]:
    """All partner-strategy names, sorted."""
    return tuple(sorted(_STRATEGIES))


def make_strategy(name: str, *, rng: SeedLike = None) -> PartnerStrategy:
    """Construct a strategy by name (unbound — the engine binds it).

    The strategy takes its default parameters; to set one (say Brahms'
    ``view_size``), construct the class directly.
    """
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        known = ", ".join(strategy_names())
        raise ConfigurationError(
            f"unknown partner strategy {name!r}; registered: {known}"
        ) from None
    return cls(rng=rng)
