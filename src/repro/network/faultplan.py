"""Scripted fault injection — declarative, seeded chaos schedules.

Real failures *arrive over time*: a rack crashes mid-cycle, a link
flaps for a minute, the network splits and later heals, loss climbs
during a congestion event and recedes.  A :class:`FaultPlan` scripts
exactly that: a list of declarative fault events, compiled onto the
simulator clock by :meth:`FaultPlan.schedule`, with every random choice
(victims, flapping links, partition assignment) drawn from the plan's
own seeded generator so a chaos run replays bit-for-bit.

It is the one fault vocabulary of the experiments and examples.  The
fault-tolerance experiment cuts links with a single :class:`LinkFlap`
whose period outlasts the cycle, and removes peers with one-node
:class:`CrashBurst` events a round apart; the resilience experiment
runs the named scenarios (:func:`named_plan`).

Event types
-----------
:class:`CrashBurst`
    At time ``at``, a fraction (or absolute count) of live nodes leaves
    the overlay at once; optionally each victim rejoins ``rejoin_after``
    later (churn with memory of the fault, not a Poisson blur).
:class:`LinkFlap`
    ``count`` random topology links cycle down/up with period
    ``period`` for ``cycles`` cycles — the flapping-interface model.
:class:`Partition`
    At ``at``, live nodes are split into ``groups`` random groups and
    every cross-group message drops; at ``heal_at`` the partition heals.
:class:`LossRamp`
    Between ``start`` and ``end`` the transport's loss rate ramps as a
    staircase from its current value to ``peak`` and back down to the
    starting value (a congestion event, not a step function).

All events are applied through the public Simulator/Transport/Overlay
APIs; nothing here reaches into engine state.  The plan records an
event log (time, kind, detail) plus counters (:meth:`FaultPlan.summary`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ValidationError
from repro.network.overlay import Overlay
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_probability

__all__ = [
    "CrashBurst",
    "LinkFlap",
    "Partition",
    "LossRamp",
    "FaultPlan",
    "named_plan",
    "plan_names",
]

#: crash bursts never push the live population below this floor
_MIN_ALIVE = 2


@dataclass(frozen=True)
class CrashBurst:
    """A simultaneous crash of several live nodes (optionally rejoining)."""

    #: simulated time the burst fires
    at: float
    #: fraction of currently-live nodes to crash (used when count == 0)
    fraction: float = 0.0
    #: absolute victim count (overrides fraction when > 0)
    count: int = 0
    #: each victim rejoins this long after the burst (None = stays down)
    rejoin_after: Optional[float] = None


@dataclass(frozen=True)
class LinkFlap:
    """Random links cycling down/up — the flapping-interface model."""

    #: time the first down-flap fires
    start: float
    #: how many distinct random links flap
    count: int
    #: full down+up cycle length (down for period/2, up for period/2)
    period: float
    #: number of down/up cycles
    cycles: int = 2


@dataclass(frozen=True)
class Partition:
    """A network split into random groups, healed at a fixed time."""

    #: time the partition forms
    at: float
    #: time it heals
    heal_at: float
    #: number of groups the live population splits into
    groups: int = 2


@dataclass(frozen=True)
class LossRamp:
    """Loss rate ramping up to ``peak`` and back — a congestion event."""

    #: ramp start time
    start: float
    #: ramp end time (loss is back to the pre-ramp value here)
    end: float
    #: peak loss rate reached at the ramp midpoint
    peak: float
    #: staircase resolution (number of loss-rate changes per side)
    steps: int = 4


FaultEvent = Union[CrashBurst, LinkFlap, Partition, LossRamp]


class FaultPlan:
    """A seeded, declarative schedule of fault events.

    Build one from event dataclasses (or via :func:`named_plan`), then
    compile it onto a simulation with :meth:`schedule` *before* running
    the cycle.  The plan draws victims/links/groups from its own
    generator at fire time, in simulator event order, so a given
    ``(plan, seed, substrate)`` triple replays identically — the
    property the sweep runner's determinism contract needs.

    Parameters
    ----------
    events:
        The fault events, in any order (each carries its own times).
    rng:
        Seed material for every random choice the plan makes.

    Crash bursts never push the live population below ``_MIN_ALIVE``.
    """

    def __init__(self, events: List[FaultEvent], *, rng: SeedLike = None) -> None:
        for ev in events:
            _validate_event(ev)
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        self._rng = as_generator(rng)
        #: chronological (time, kind, detail) records of applied faults
        self.log: List[Tuple[float, str, str]] = []
        self.crashes = 0
        self.rejoins = 0
        self.flaps = 0
        self.partitions = 0
        self.heals = 0
        self.loss_changes = 0
        self._scheduled = False

    # -- compilation -------------------------------------------------------

    def schedule(
        self,
        sim: Simulator,
        transport: Transport,
        overlay: Overlay,
        *,
        on_rejoin: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Install every event's callbacks on the simulator clock.

        ``on_rejoin`` is notified per node after a crashed node rejoins
        the overlay — the hook strategies use to re-bootstrap
        membership.  A plan instance can be scheduled once (its log and
        counters are per-run).
        """
        if self._scheduled:
            raise ValidationError("this FaultPlan is already scheduled; build a new one")
        self._scheduled = True
        for ev in self.events:
            if isinstance(ev, CrashBurst):
                sim.call_at(ev.at, self._fire_crash, sim, overlay, ev, on_rejoin)
            elif isinstance(ev, LinkFlap):
                self._schedule_flaps(sim, transport, overlay, ev)
            elif isinstance(ev, Partition):
                sim.call_at(ev.at, self._fire_partition, transport, overlay, ev)
                sim.call_at(ev.heal_at, self._fire_heal, transport, ev)
            elif isinstance(ev, LossRamp):
                self._schedule_ramp(sim, transport, ev)

    # -- crash bursts ------------------------------------------------------

    def _fire_crash(
        self,
        sim: Simulator,
        overlay: Overlay,
        ev: CrashBurst,
        on_rejoin: Optional[Callable[[int], None]],
    ) -> None:
        live = [int(v) for v in overlay.alive_nodes().tolist()]
        want = ev.count if ev.count > 0 else int(round(ev.fraction * len(live)))
        budget = max(0, len(live) - _MIN_ALIVE)
        k = min(want, budget)
        if k <= 0:
            return
        picks = self._rng.choice(len(live), size=k, replace=False)
        victims = sorted(live[int(i)] for i in picks)
        for node in victims:
            overlay.leave(node)
            self.crashes += 1
            if ev.rejoin_after is not None:
                sim.call_in(ev.rejoin_after, self._fire_rejoin, overlay, node, on_rejoin)
        self.log.append((sim.now, "crash", f"{k} nodes: {victims[:8]}..."))

    def _fire_rejoin(
        self,
        overlay: Overlay,
        node: int,
        on_rejoin: Optional[Callable[[int], None]],
    ) -> None:
        if overlay.is_alive(node):
            return
        overlay.join(node)
        self.rejoins += 1
        if on_rejoin is not None:
            on_rejoin(node)

    # -- link flaps --------------------------------------------------------

    def _schedule_flaps(
        self, sim: Simulator, transport: Transport, overlay: Overlay, ev: LinkFlap
    ) -> None:
        sim.call_at(ev.start, self._start_flaps, sim, transport, overlay, ev)

    def _start_flaps(
        self, sim: Simulator, transport: Transport, overlay: Overlay, ev: LinkFlap
    ) -> None:
        edges = list(overlay.live_subgraph().edges())
        if not edges:
            return
        k = min(ev.count, len(edges))
        picks = self._rng.choice(len(edges), size=k, replace=False)
        chosen = [edges[int(i)] for i in picks]
        half = ev.period / 2.0
        for cycle in range(ev.cycles):
            down_at = cycle * ev.period
            for u, v in chosen:
                sim.call_in(down_at, self._flap_down, sim, transport, int(u), int(v), half)
        self.log.append((sim.now, "flap", f"{k} links x {ev.cycles} cycles"))

    def _flap_down(
        self, sim: Simulator, transport: Transport, u: int, v: int, half: float
    ) -> None:
        transport.links.fail(u, v)
        self.flaps += 1
        sim.call_in(half, transport.links.heal, u, v)

    # -- partitions --------------------------------------------------------

    def _fire_partition(
        self, transport: Transport, overlay: Overlay, ev: Partition
    ) -> None:
        live = [int(v) for v in overlay.alive_nodes().tolist()]
        assignment = {
            node: int(self._rng.integers(ev.groups)) for node in sorted(live)
        }
        transport.links.set_partition(assignment)
        self.partitions += 1
        sizes: Dict[int, int] = {}
        for g in assignment.values():
            sizes[g] = sizes.get(g, 0) + 1
        self.log.append(
            (transport.sim.now, "partition", f"groups={sorted(sizes.values())}")
        )

    def _fire_heal(self, transport: Transport, ev: Partition) -> None:
        transport.links.clear_partition()
        self.heals += 1
        self.log.append((transport.sim.now, "heal", "partition cleared"))

    # -- loss ramps --------------------------------------------------------

    def _schedule_ramp(self, sim: Simulator, transport: Transport, ev: LossRamp) -> None:
        sim.call_at(ev.start, self._start_ramp, sim, transport, ev)

    def _start_ramp(self, sim: Simulator, transport: Transport, ev: LossRamp) -> None:
        base = transport.loss_rate
        span = ev.end - ev.start
        # Staircase up to the peak over the first half, back down over
        # the second; the final step restores the pre-ramp rate.
        points: List[Tuple[float, float]] = []
        for i in range(1, ev.steps + 1):
            t = span / 2.0 * (i / ev.steps)
            rate = base + (ev.peak - base) * (i / ev.steps)
            points.append((t, rate))
        for i in range(1, ev.steps + 1):
            t = span / 2.0 + span / 2.0 * (i / ev.steps)
            rate = ev.peak + (base - ev.peak) * (i / ev.steps)
            points.append((t, rate))
        for t, rate in points:
            sim.call_in(t, self._set_loss, transport, rate)
        self.log.append((sim.now, "loss-ramp", f"{base:g} -> {ev.peak:g} -> {base:g}"))

    def _set_loss(self, transport: Transport, rate: float) -> None:
        transport.set_loss_rate(rate)
        self.loss_changes += 1

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Applied-fault counters for experiment reports."""
        return {
            "crashes": self.crashes,
            "rejoins": self.rejoins,
            "flaps": self.flaps,
            "partitions": self.partitions,
            "heals": self.heals,
            "loss_changes": self.loss_changes,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaultPlan(events={len(self.events)}, scheduled={self._scheduled})"


def _validate_event(ev: FaultEvent) -> None:
    if isinstance(ev, CrashBurst):
        check_non_negative("at", ev.at)
        if ev.count == 0:
            check_probability("fraction", ev.fraction)
        elif ev.count < 0:
            raise ValidationError(f"count must be >= 0, got {ev.count}")
        if ev.rejoin_after is not None:
            check_non_negative("rejoin_after", ev.rejoin_after)
    elif isinstance(ev, LinkFlap):
        check_non_negative("start", ev.start)
        if ev.count < 1:
            raise ValidationError(f"flap count must be >= 1, got {ev.count}")
        if not ev.period > 0:
            raise ValidationError(f"flap period must be > 0, got {ev.period}")
        if ev.cycles < 1:
            raise ValidationError(f"flap cycles must be >= 1, got {ev.cycles}")
    elif isinstance(ev, Partition):
        check_non_negative("at", ev.at)
        if not ev.heal_at > ev.at:
            raise ValidationError(
                f"heal_at={ev.heal_at} must be after at={ev.at}"
            )
        if ev.groups < 2:
            raise ValidationError(f"groups must be >= 2, got {ev.groups}")
    elif isinstance(ev, LossRamp):
        check_non_negative("start", ev.start)
        if not ev.end > ev.start:
            raise ValidationError(f"end={ev.end} must be after start={ev.start}")
        check_probability("peak", ev.peak)
        if ev.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {ev.steps}")
    else:  # pragma: no cover
        raise ValidationError(f"unknown fault event {ev!r}")


# -- named plans --------------------------------------------------------------

#: horizon-parameterized builders of the canonical chaos scenarios
_PLAN_BUILDERS: Dict[str, Callable[[float], List[FaultEvent]]] = {
    # A quarter of the network crashes early; half the victims return.
    "crash": lambda horizon: [
        CrashBurst(at=0.15 * horizon, fraction=0.15),
        CrashBurst(at=0.30 * horizon, fraction=0.10, rejoin_after=0.25 * horizon),
    ],
    # The network splits in two for the middle third of the run.
    "partition": lambda horizon: [
        Partition(at=0.30 * horizon, heal_at=0.60 * horizon, groups=2),
    ],
    # Loss climbs to 30% and back during the middle of the run.
    "loss_ramp": lambda horizon: [
        LossRamp(start=0.20 * horizon, end=0.70 * horizon, peak=0.30, steps=4),
    ],
    # Kitchen sink: flapping links, a crash burst with rejoin, a
    # short partition, and a mild loss ramp, overlapping.
    "combo": lambda horizon: [
        LinkFlap(start=0.10 * horizon, count=12, period=0.10 * horizon, cycles=3),
        CrashBurst(at=0.25 * horizon, fraction=0.10, rejoin_after=0.30 * horizon),
        Partition(at=0.45 * horizon, heal_at=0.60 * horizon, groups=2),
        LossRamp(start=0.30 * horizon, end=0.80 * horizon, peak=0.15, steps=3),
    ],
}


def plan_names() -> Tuple[str, ...]:
    """The canonical chaos scenario names, sorted."""
    return tuple(sorted(_PLAN_BUILDERS))


def named_plan(
    name: str,
    *,
    horizon: float,
    rng: SeedLike = None,
) -> FaultPlan:
    """Build a canonical chaos scenario scaled to a run ``horizon``.

    ``horizon`` is the simulated time the cycle is expected to span
    (e.g. ``rounds * round_interval``); all event times are fractions
    of it, so one plan shape serves quick tests and long soaks alike.
    """
    if not horizon > 0:
        raise ValidationError(f"horizon must be > 0, got {horizon}")
    try:
        builder = _PLAN_BUILDERS[name]
    except KeyError:
        known = ", ".join(plan_names())
        raise ValidationError(f"unknown fault plan {name!r}; known: {known}") from None
    return FaultPlan(builder(horizon), rng=rng)
