"""GossipTrust configuration — the design parameters of Table 2.

Defaults are the paper's (Table 2): n = 1000 peers, greedy factor
``alpha = 0.15``, up to ``q = 1%`` power nodes, aggregation threshold
``delta = 1e-3``, gossip threshold ``epsilon = 1e-4``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis.sanitizer import sanitize_enabled
from repro.errors import ConfigurationError

__all__ = ["GossipTrustConfig"]


@dataclass(frozen=True)
class GossipTrustConfig:
    """Immutable parameter set for a GossipTrust deployment.

    Attributes
    ----------
    n:
        Number of peers in the P2P network.
    alpha:
        Greedy factor — weight of the power-node distribution in the
        per-cycle mixing ``V <- (1-alpha) S^T V + alpha P``.  ``0``
        disables power-node leverage entirely.
    power_node_fraction:
        Max fraction of nodes selected as power nodes each round
        (Table 2: ``q`` = 1% of n).
    delta:
        Global aggregation convergence threshold (average relative error
        between consecutive cycle vectors).
    epsilon:
        Gossip convergence threshold within a cycle (max per-node
        estimate change per step).
    max_cycles:
        Aggregation-cycle budget (the paper proves d <= ceil(log_b delta),
        a small number; the budget is a guard, not a tuning knob).
    max_gossip_steps:
        Per-cycle gossip step budget.
    engine:
        Gossip-engine name driving the aggregation cycles (``"sync"``,
        ``"message"``, ``"async"`` or ``"structured"``; see
        :func:`~repro.gossip.factory.make_engine`).
    engine_mode:
        ``"auto"``, ``"full"``, or ``"probe"`` for the vectorized engine.
    kernel:
        Step-loop kernel of the vectorized engine.  ``"sparse"``
        (sort-free dense steps over column blocks, from step 0) is the
        only kernel; the field stays so configs that name it keep
        working.
    dtype:
        Vectorized-engine buffer precision, ``"float64"`` (default) or
        ``"float32"`` (halves workspace memory; scores agree to
        ~steps * eps32 relative — see the engine docs).
    partner_strategy:
        How the message-level engines pick gossip partners: a
        :mod:`~repro.gossip.partnering` strategy name (``"global"``,
        ``"neighbors"``, ``"brahms"``).  The default ``"global"`` is the
        omniscient-membership oracle the paper's analysis assumes;
        ``"brahms"`` maintains partial-view membership over the
        simulated transport.  Vectorized engines
        (``sync``/``structured``) ignore it.
    mass_restore_budget:
        Self-healing threshold on per-cycle ``mass_lost_fraction`` for
        the message-level engines; ``None`` (default) disables the
        mass-restoration guard.
    compute_reference:
        Whether :meth:`GossipTrust.run` computes the exact-aggregation
        oracle for error reporting.  The oracle costs O(n * cycles)
        dense products; production-scale runs set this False and get
        ``aggregation_error``/``exact_reference`` as ``None``.
    seed:
        Root RNG seed (None = fresh entropy).
    sanitize:
        Arm the runtime invariant sanitizer on every engine built from
        this config (push-sum mass conservation, ``w >= 0``, finiteness
        — see :mod:`repro.analysis.sanitizer`).  Defaults to the
        ``REPRO_SANITIZE`` environment flag, so a CI soak run can arm a
        whole process without touching call sites.
    """

    n: int = 1000
    alpha: float = 0.15
    power_node_fraction: float = 0.01
    delta: float = 1e-3
    epsilon: float = 1e-4
    max_cycles: int = 200
    max_gossip_steps: int = 5000
    engine: str = "sync"
    engine_mode: str = "auto"
    kernel: str = "sparse"
    dtype: str = "float64"
    partner_strategy: str = "global"
    mass_restore_budget: Optional[float] = None
    compute_reference: bool = True
    seed: Optional[int] = None
    sanitize: bool = field(default_factory=sanitize_enabled)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"n must be >= 2, got {self.n}")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 <= self.power_node_fraction <= 1.0:
            raise ConfigurationError(
                f"power_node_fraction must be in [0, 1], got {self.power_node_fraction}"
            )
        if not self.delta > 0:
            raise ConfigurationError(f"delta must be > 0, got {self.delta}")
        if not self.epsilon > 0:
            raise ConfigurationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_cycles < 1:
            raise ConfigurationError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.max_gossip_steps < 1:
            raise ConfigurationError(
                f"max_gossip_steps must be >= 1, got {self.max_gossip_steps}"
            )
        if self.engine_mode not in ("auto", "full", "probe"):
            raise ConfigurationError(f"unknown engine_mode {self.engine_mode!r}")
        if not self.engine or not isinstance(self.engine, str):
            raise ConfigurationError(
                f"engine must be a non-empty engine name, got {self.engine!r}"
            )
        # Imported lazily: gossip modules must stay importable without
        # the core package.
        from repro.gossip.factory import engine_names

        if self.engine not in engine_names():
            known = ", ".join(engine_names())
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; registered: {known}"
            )
        if self.kernel != "sparse":
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; the only kernel is 'sparse'"
            )
        if self.dtype not in ("float64", "float32"):
            raise ConfigurationError(f"unknown dtype {self.dtype!r}")
        # Imported lazily, like the engine names above.
        from repro.gossip.partnering import strategy_names

        if self.partner_strategy not in strategy_names():
            known = ", ".join(strategy_names())
            raise ConfigurationError(
                f"unknown partner_strategy {self.partner_strategy!r}; "
                f"registered: {known}"
            )
        if self.mass_restore_budget is not None and not (
            0.0 < self.mass_restore_budget < 1.0
        ):
            raise ConfigurationError(
                f"mass_restore_budget must be in (0, 1) or None, "
                f"got {self.mass_restore_budget}"
            )

    @property
    def max_power_nodes(self) -> int:
        """``q`` — the power-node count cap (at least 1 when alpha > 0)."""
        q = int(self.n * self.power_node_fraction)
        if self.alpha > 0:
            return max(1, q)
        return q

    def with_updates(self, **changes: object) -> "GossipTrustConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]
