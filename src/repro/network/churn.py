"""Peer churn: exponential join/leave dynamics on an overlay.

The paper's design goals require GossipTrust to be "adaptive to peer
dynamics".  This model drives an :class:`~repro.network.overlay.Overlay`
with the standard M/M churn process: each live peer departs after an
exponential session time, each departed peer rejoins after an
exponential offline time.
"""

from __future__ import annotations

from typing import Optional

from repro.network.overlay import Overlay
from repro.sim.engine import Simulator
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive

__all__ = ["ChurnModel"]


class ChurnModel:
    """Exponential session/offline churn over an overlay.

    Parameters
    ----------
    sim, overlay:
        The event kernel and overlay to drive.
    mean_session:
        Mean time a peer stays online before departing.
    mean_offline:
        Mean time a departed peer stays offline before rejoining
        (``None`` disables rejoin — pure departure churn).
    min_alive:
        Floor on the live population; departures that would go below it
        are skipped (the reputation system is meaningless on an empty
        overlay, and the paper's experiments never drain the network).
    """

    def __init__(
        self,
        sim: Simulator,
        overlay: Overlay,
        mean_session: float = 100.0,
        mean_offline: Optional[float] = 20.0,
        min_alive: int = 2,
        rng: SeedLike = None,
    ) -> None:
        check_positive("mean_session", mean_session)
        if mean_offline is not None:
            check_positive("mean_offline", mean_offline)
        self.sim = sim
        self.overlay = overlay
        self.mean_session = float(mean_session)
        self.mean_offline = None if mean_offline is None else float(mean_offline)
        self.min_alive = int(min_alive)
        self._rng = as_generator(rng)
        self.departures = 0
        self.rejoins = 0
        self._started = False

    def start(self) -> None:
        """Schedule the initial departure timer for every live peer."""
        if self._started:
            return
        self._started = True
        for node in self.overlay.alive_nodes().tolist():
            self._schedule_departure(int(node))

    # -- internals -------------------------------------------------------

    def _schedule_departure(self, node: int) -> None:
        delay = float(self._rng.exponential(self.mean_session))
        self.sim.call_in(delay, self._depart, node)

    def _schedule_rejoin(self, node: int) -> None:
        if self.mean_offline is None:
            return
        delay = float(self._rng.exponential(self.mean_offline))
        self.sim.call_in(delay, self._rejoin, node)

    def _depart(self, node: int) -> None:
        if not self.overlay.is_alive(node):
            return  # already gone via some other path
        if self.overlay.alive_count <= self.min_alive:
            # Population floor: retry later instead of draining the net.
            self._schedule_departure(node)
            return
        self.overlay.leave(node)
        self.departures += 1
        self._schedule_rejoin(node)

    def _rejoin(self, node: int) -> None:
        if self.overlay.is_alive(node):
            return
        self.overlay.join(node)
        self.rejoins += 1
        self._schedule_departure(node)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ChurnModel(session={self.mean_session}, offline={self.mean_offline}, "
            f"departures={self.departures}, rejoins={self.rejoins})"
        )
