"""Engine registry and factory — one construction path for every engine.

Every gossip executor implementing the :class:`~repro.gossip.base.CycleEngine`
contract is registered here under a short name:

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
when none is supplied.  Keyword overrides are forwarded to the engine
constructor; options an engine does not take are dropped, so one sweep
loop can drive heterogeneous engines (e.g. ``epsilon`` is meaningless
to the deterministic structured all-reduce and simply ignored by it).

Adding a new aggregation algorithm (e.g. the differential-gossip or
absolute-trust variants from related work) is a one-file change: subclass
:class:`CycleEngine`, then :func:`register_engine` a builder for it.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.gossip.base import CycleEngine
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.message_engine import AsyncMessageGossipEngine, MessageGossipEngine
from repro.gossip.structured import StructuredAggregationEngine
from repro.network.overlay import Overlay
from repro.network.topology import gnutella_like
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.utils.rng import RngStreams, SeedLike

if TYPE_CHECKING:  # avoid a core <-> gossip import cycle
    from repro.core.config import GossipTrustConfig

__all__ = [
    "DEFAULT_ENGINE",
    "EngineBuilder",
    "engine_names",
    "register_engine",
    "make_engine",
]

#: the default engine name (the vectorized synchronous executor)
DEFAULT_ENGINE = "sync"

#: default simulated latency of the factory-built transport
_DEFAULT_LATENCY = 1.0
#: default round pacing of the message engine (> 1.5 x latency)
_DEFAULT_ROUND_INTERVAL = 2.0

#: builder signature: (n, config, streams, sim, transport, overlay, overrides)
EngineBuilder = Callable[..., CycleEngine]

_REGISTRY: Dict[str, EngineBuilder] = {}


def register_engine(name: str, builder: EngineBuilder, *, replace: bool = False) -> None:
    """Register a :class:`CycleEngine` builder under ``name``.

    ``builder(n, config, streams, sim, transport, overlay, overrides)``
    must return a ready engine.  ``overrides`` is a plain dict of the
    caller's extra keyword arguments; builders should forward the subset
    their engine understands (:func:`constructor_kwargs` helps).
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"engine name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(f"engine {name!r} is already registered")
    _REGISTRY[name] = builder


def engine_names() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def constructor_kwargs(cls: Type[Any], options: Mapping[str, Any]) -> Dict[str, Any]:
    """The subset of ``options`` that ``cls.__init__`` accepts."""
    accepted = set(inspect.signature(cls.__init__).parameters) - {"self"}
    return {k: v for k, v in options.items() if k in accepted}


def make_engine(
    name: str,
    config: "Optional[GossipTrustConfig]" = None,
    *,
    n: Optional[int] = None,
    rng: "SeedLike | RngStreams" = None,
    sim: Optional[Simulator] = None,
    transport: Optional[Transport] = None,
    overlay: Optional[Overlay] = None,
    **overrides: Any,
) -> CycleEngine:
    """Construct a registered engine from a config (or a bare ``n``).

    Parameters
    ----------
    name:
        A registered engine name (see :func:`engine_names`).
    config:
        Source of the shared parameters (``n``, ``epsilon``,
        ``engine_mode``, ``probe_columns``, ``max_gossip_steps``,
        ``seed``).  ``None`` builds paper defaults from ``n``.
    n:
        Network size; required when ``config`` is omitted, and checked
        against ``config.n`` otherwise.
    rng:
        Seed material — an :class:`~repro.utils.rng.RngStreams` (used
        as-is, so the caller shares named streams with the engine) or
        any :data:`SeedLike`; defaults to ``config.seed``.
    sim, transport, overlay:
        Simulation substrate for the message-level engines.  Whatever is
        omitted is built with deterministic defaults (heap DES,
        Gnutella-like topology, lossless transport at latency 1.0); pass
        your own to inject faults.  ``latency`` and ``loss_rate``
        overrides parameterize the default transport.
    overrides:
        Extra keyword arguments for the engine constructor.  Options the
        selected engine does not accept are dropped, so uniform sweep
        code can drive every engine with one call.
    """
    try:
        builder = _REGISTRY[name]
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
    engine = builder(config.n, config, streams, sim, transport, overlay, dict(overrides))
    if getattr(config, "sanitize", False):
        engine.arm_sanitizer()
    return engine


# -- substrate ---------------------------------------------------------------


def _substrate(
    n: int,
    streams: RngStreams,
    overrides: Dict[str, Any],
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
        transport = Transport(
            sim,
            latency=float(overrides.pop("latency", _DEFAULT_LATENCY)),
            loss_rate=float(overrides.pop("loss_rate", 0.0)),
            rng=streams.get("engine-net"),
        )
    return sim, transport, overlay


def _apply_robustness(
    config: "GossipTrustConfig",
    streams: RngStreams,
    overrides: Dict[str, Any],
    kwargs: Dict[str, Any],
) -> None:
    """Resolve partner strategy + mass-restoration knobs for DES engines.

    ``partner_strategy`` (a registry name) and ``strategy_kwargs`` may
    arrive as overrides or from the config; a ready-built ``partnering``
    instance in the overrides wins.  The strategy draws from the
    dedicated ``"membership"`` stream, so membership maintenance never
    perturbs the gossip/topology draw sequences (the determinism
    contract's stream discipline).
    """
    name = overrides.pop(
        "partner_strategy", getattr(config, "partner_strategy", "global")
    )
    strategy_kwargs = overrides.pop("strategy_kwargs", {})
    if "partnering" not in overrides and name != "global":
        from repro.gossip.partnering import make_strategy

        kwargs["partnering"] = make_strategy(
            name, rng=streams.get("membership"), **strategy_kwargs
        )
    budget = overrides.pop(
        "mass_restore_budget", getattr(config, "mass_restore_budget", None)
    )
    if budget is not None:
        kwargs["mass_restore_budget"] = budget


# -- builders ----------------------------------------------------------------


def _build_sync(
    n: int,
    config: "GossipTrustConfig",
    streams: RngStreams,
    sim: Optional[Simulator],
    transport: Optional[Transport],
    overlay: Optional[Overlay],
    overrides: Dict[str, Any],
) -> CycleEngine:
    kwargs = dict(
        epsilon=config.epsilon,
        mode=config.engine_mode,
        probe_columns=config.probe_columns,
        max_steps=config.max_gossip_steps,
        check_every=config.check_every,
        dtype=getattr(config, "dtype", "float64"),
        rng=streams.get("gossip"),
    )
    kwargs.update(constructor_kwargs(SynchronousGossipEngine, overrides))
    return SynchronousGossipEngine(n, **kwargs)


def _build_structured(
    n: int,
    config: "GossipTrustConfig",
    streams: RngStreams,
    sim: Optional[Simulator],
    transport: Optional[Transport],
    overlay: Optional[Overlay],
    overrides: Dict[str, Any],
) -> CycleEngine:
    return StructuredAggregationEngine(
        n, **constructor_kwargs(StructuredAggregationEngine, overrides)
    )


def _build_message(
    n: int,
    config: "GossipTrustConfig",
    streams: RngStreams,
    sim: Optional[Simulator],
    transport: Optional[Transport],
    overlay: Optional[Overlay],
    overrides: Dict[str, Any],
) -> CycleEngine:
    sim, transport, overlay = _substrate(n, streams, overrides, sim, transport, overlay)
    kwargs = dict(
        epsilon=config.epsilon,
        round_interval=_DEFAULT_ROUND_INTERVAL,
        rng=streams.get("gossip"),
    )
    _apply_robustness(config, streams, overrides, kwargs)
    kwargs.update(constructor_kwargs(MessageGossipEngine, overrides))
    return MessageGossipEngine(sim, transport, overlay, **kwargs)


def _build_async(
    n: int,
    config: "GossipTrustConfig",
    streams: RngStreams,
    sim: Optional[Simulator],
    transport: Optional[Transport],
    overlay: Optional[Overlay],
    overrides: Dict[str, Any],
) -> CycleEngine:
    sim, transport, overlay = _substrate(n, streams, overrides, sim, transport, overlay)
    kwargs = dict(epsilon=config.epsilon, rng=streams.get("gossip"))
    _apply_robustness(config, streams, overrides, kwargs)
    kwargs.update(constructor_kwargs(AsyncMessageGossipEngine, overrides))
    return AsyncMessageGossipEngine(sim, transport, overlay, **kwargs)


register_engine("sync", _build_sync)
register_engine("structured", _build_structured)
register_engine("message", _build_message)
register_engine("async", _build_async)
