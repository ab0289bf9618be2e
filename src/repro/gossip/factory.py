"""Engine factory — one construction path for every engine.

The four gossip executors implementing the
:class:`~repro.gossip.base.CycleEngine` contract, by name:

====================  =====================================================
``"sync"``            :class:`~repro.gossip.engine.SynchronousGossipEngine`
``"message"``         :class:`~repro.gossip.message_engine.MessageGossipEngine`
``"async"``           :class:`~repro.gossip.message_engine.AsyncMessageGossipEngine`
``"structured"``      :class:`~repro.gossip.structured.StructuredAggregationEngine`
====================  =====================================================

:func:`make_engine` builds any of them from a
:class:`~repro.core.config.GossipTrustConfig` (or just ``n``), deriving
RNG streams, and — for the message-level engines — a default simulation
substrate (DES simulator, Gnutella-like overlay, lossless transport)
when none is supplied.  The config supplies the values the engines
share; keyword options go to the engine constructor unfiltered, so an
option the engine does not take raises :class:`TypeError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.gossip.base import CycleEngine
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.message_engine import AsyncMessageGossipEngine, MessageGossipEngine
from repro.gossip.partnering import make_strategy
from repro.gossip.structured import StructuredAggregationEngine
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.utils.rng import RngStreams, SeedLike

if TYPE_CHECKING:  # avoid a core <-> gossip import cycle
    from repro.core.config import GossipTrustConfig

__all__ = ["engine_names", "make_engine"]

_ENGINES: Dict[str, Callable[..., CycleEngine]] = {
    "sync": SynchronousGossipEngine,
    "structured": StructuredAggregationEngine,
    "message": MessageGossipEngine,
    "async": AsyncMessageGossipEngine,
}


def engine_names() -> Tuple[str, ...]:
    """All engine names, sorted."""
    return tuple(sorted(_ENGINES))


def make_engine(
    name: str,
    config: "Optional[GossipTrustConfig]" = None,
    *,
    n: Optional[int] = None,
    rng: "SeedLike | RngStreams" = None,
    sim: Optional[Simulator] = None,
    transport: Optional[Transport] = None,
    overlay: Optional[Overlay] = None,
    **options: Any,
) -> CycleEngine:
    """Construct an engine from a config (or a bare ``n``).

    Parameters
    ----------
    name:
        An engine name (see :func:`engine_names`).
    config:
        Source of the shared parameters: ``n``, ``epsilon``, ``seed``
        and ``sanitize`` for every engine; ``engine_mode``,
        ``max_gossip_steps`` and ``dtype`` for the sync engine;
        ``partner_strategy`` and ``mass_restore_budget`` for the
        message-level engines.  ``None`` builds paper defaults from
        ``n``.
    n:
        Network size; required when ``config`` is omitted, and checked
        against ``config.n`` otherwise.
    rng:
        Seed material — an :class:`~repro.utils.rng.RngStreams` (used
        as-is, so the caller shares named streams with the engine) or
        any :data:`SeedLike`; defaults to ``config.seed``.
    sim, transport, overlay:
        Simulation substrate for the message-level engines (the sync
        and structured engines do not use one).  Whatever is omitted is
        built with deterministic defaults (heap DES, Gnutella-like
        topology, lossless transport at latency 1.0); pass your own to
        inject faults.
    options:
        Keyword arguments for the engine constructor, overriding the
        values taken from ``config``.  They are not filtered: an option
        the engine does not take raises :class:`TypeError`.
    """
    try:
        cls = _ENGINES[name]
    except KeyError:
        known = ", ".join(engine_names())
        raise ConfigurationError(f"unknown engine {name!r}; registered: {known}") from None
    if config is None:
        if n is None:
            raise ConfigurationError("make_engine needs a config or an explicit n")
        from repro.core.config import GossipTrustConfig

        config = GossipTrustConfig(n=int(n))
    elif n is not None and config.n != n:
        raise ConfigurationError(f"explicit n={n} does not match config.n={config.n}")
    streams = rng if isinstance(rng, RngStreams) else RngStreams(
        rng if rng is not None else config.seed
    )
    args: Tuple[Any, ...] = (config.n,)
    kwargs: Dict[str, Any] = {}
    if cls is SynchronousGossipEngine:
        kwargs.update(
            epsilon=config.epsilon,
            mode=config.engine_mode,
            max_steps=config.max_gossip_steps,
            dtype=config.dtype,
            rng=streams.get("gossip"),
        )
    elif cls is not StructuredAggregationEngine:
        args = _substrate(config.n, streams, sim, transport, overlay)
        kwargs.update(epsilon=config.epsilon, rng=streams.get("gossip"))
        # The strategy draws from its own "membership" stream, so
        # membership upkeep never perturbs the gossip or topology draws.
        if config.partner_strategy != "global" and "partnering" not in options:
            kwargs["partnering"] = make_strategy(
                config.partner_strategy, rng=streams.get("membership")
            )
        if config.mass_restore_budget is not None:
            kwargs["mass_restore_budget"] = config.mass_restore_budget
    kwargs.update(options)
    engine = cls(*args, **kwargs)
    if config.sanitize:
        engine.arm_sanitizer()
    return engine


def _substrate(
    n: int,
    streams: RngStreams,
    sim: Optional[Simulator],
    transport: Optional[Transport],
    overlay: Optional[Overlay],
) -> Tuple[Simulator, Transport, Overlay]:
    """Fill in whatever simulation substrate the caller did not supply."""
    if sim is None:
        sim = Simulator() if transport is None else transport.sim
    if overlay is None:
        topo = gnutella_like(n, rng=streams.get("engine-topology"))
        overlay = Overlay(topo, rng=streams.get("engine-overlay"))
    if transport is None:
        transport = Transport(sim, rng=streams.get("engine-net"))
    return sim, transport, overlay
