"""Runtime invariant sanitizer for the gossip engines.

The paper's correctness argument rests on invariants the code otherwise
only states in prose: push-sum conserves total mass (the column sums of
``x`` and ``w`` never change — §2, Eqs. 3-4), consensus mass ``w`` never
goes negative, estimates stay finite, and the Eq. 1 normalization leaves
``S`` row-stochastic.  When armed, this sanitizer turns each of those
into a *checked* hook: every engine calls back into one
:class:`InvariantSanitizer` at its convergence-check cadence, and any
breach raises a structured :class:`~repro.errors.InvariantViolation`
naming the engine, aggregation cycle, gossip step, and (when known) the
offending node.

Arming
------
* ``REPRO_SANITIZE=1`` in the environment — flips the
  :class:`~repro.core.config.GossipTrustConfig.sanitize` default and
  the :class:`~repro.trust.matrix.TrustMatrix` re-validation on, with
  zero code changes (CI soak runs use this);
* ``GossipTrustConfig(sanitize=True)`` — the factory arms every engine
  it builds;
* :meth:`CycleEngine.arm_sanitizer <repro.gossip.base.CycleEngine.arm_sanitizer>`
  — manual arming of a single engine instance.

Cost model
----------
Checks run at *checked steps only* (the engines' convergence-check
cadence, not every gossip step), and each check is one vectorized
reduction over state the engine already has in cache — O(n·p) per
checked step for the dense sync kernel, O(population) per round for the
message engines.  In practice the armed contract suite runs within ~2x
of unarmed wall time; the default stays off for production sweeps.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.errors import InvariantViolation

__all__ = [
    "ENV_FLAG",
    "InvariantSanitizer",
    "sanitize_enabled",
    "set_sanitize_enabled",
]

#: environment variable that arms the sanitizer process-wide
ENV_FLAG = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: programmatic override of the env flag (None = defer to environment)
_FORCED: Optional[bool] = None


def sanitize_enabled() -> bool:
    """Whether the process-wide sanitizer switch is on.

    Reads :func:`set_sanitize_enabled`'s override first, then the
    ``REPRO_SANITIZE`` environment variable.  Consulted by
    :class:`~repro.core.config.GossipTrustConfig` for its ``sanitize``
    default and by :class:`~repro.trust.matrix.TrustMatrix` for
    post-normalization re-validation.
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY


def set_sanitize_enabled(value: Optional[bool]) -> None:
    """Force the process-wide switch on/off; ``None`` defers to the env."""
    global _FORCED
    _FORCED = value


class InvariantSanitizer:
    """Checked invariant hooks shared by every gossip engine.

    One instance is armed per engine (see
    :meth:`~repro.gossip.base.CycleEngine.arm_sanitizer`); it tracks the
    aggregation-cycle count itself via :meth:`begin_cycle` so engines
    never need to know their position in the outer loop.  Each ``check_*``
    method increments :attr:`checks` (so tests can prove hooks actually
    ran) and raises :class:`~repro.errors.InvariantViolation` on breach.

    Parameters
    ----------
    rel_tol:
        Relative tolerance of the mass-conservation and agreement
        checks, scaled by the conserved quantity's magnitude.  Push-sum
        arithmetic (halving + summing) is exact in binary floating
        point; the tolerance absorbs only the segment-sum reordering of
        the vectorized kernels.
    """

    def __init__(self, *, rel_tol: float = 1e-9):
        if not rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {rel_tol}")
        self.rel_tol = float(rel_tol)
        #: number of invariant checks executed so far
        self.checks = 0
        #: 1-based cycle counter maintained by begin_cycle
        self.cycle = 0
        #: name of the engine currently driving checks
        self.engine = ""

    # -- lifecycle ---------------------------------------------------------

    def begin_cycle(self, engine: str) -> int:
        """Mark the start of an aggregation cycle on ``engine``."""
        self.cycle += 1
        self.engine = engine
        return self.cycle

    def _fail(
        self,
        invariant: str,
        message: str,
        *,
        step: Optional[int] = None,
        node: Optional[int] = None,
    ) -> None:
        raise InvariantViolation(
            message,
            invariant=invariant,
            engine=self.engine,
            cycle=self.cycle if self.cycle else None,
            step=step,
            node=node,
        )

    # -- checks ------------------------------------------------------------

    def check_finite(
        self, name: str, arr: np.ndarray, *, step: Optional[int] = None
    ) -> None:
        """All entries of ``arr`` are finite (no NaN/inf)."""
        self.checks += 1
        a = np.asarray(arr)
        if not np.all(np.isfinite(a)):
            bad = np.argwhere(~np.isfinite(a))
            node = int(bad[0][0]) if bad.size else None
            count = int(bad.shape[0])
            self._fail(
                "finite",
                f"{name} contains {count} NaN/inf entr{'y' if count == 1 else 'ies'}",
                step=step,
                node=node,
            )

    def check_nonnegative(
        self, name: str, arr: np.ndarray, *, step: Optional[int] = None
    ) -> None:
        """No entry of ``arr`` is negative (consensus mass w >= 0)."""
        self.checks += 1
        a = np.asarray(arr)
        # NaNs compare False against 0 and would slip through a `< 0`
        # scan; route them to check_finite's message instead.
        if a.size and not np.min(a) >= 0:
            if not np.all(np.isfinite(a)):
                self.check_finite(name, a, step=step)
            bad = np.argwhere(a < 0)
            node = int(bad[0][0]) if bad.size else None
            worst = float(np.min(a))
            self._fail(
                "nonnegative-mass",
                f"{name} has negative entries (min = {worst:.6g})",
                step=step,
                node=node,
            )

    def check_mass(
        self,
        name: str,
        total: float,
        expected: float,
        *,
        step: Optional[int] = None,
    ) -> None:
        """Conservation: ``total`` equals ``expected`` within tolerance."""
        self.checks += 1
        tol = self.rel_tol * max(abs(expected), 1.0)
        if not abs(total - expected) <= tol:
            self._fail(
                "mass-conservation",
                f"{name} drifted: |{total!r} - {expected!r}| = "
                f"{abs(total - expected):.6g} > tol {tol:.3g}",
                step=step,
            )

    def check_mass_bounded(
        self,
        name: str,
        total: float,
        ceiling: float,
        *,
        step: Optional[int] = None,
    ) -> None:
        """Lossy-transport form: mass may vanish but never appear.

        Message engines lose the mass carried by dropped messages and
        departed nodes, so equality cannot hold under fault injection —
        but the total can *never exceed* what the cycle started with.
        """
        self.checks += 1
        tol = self.rel_tol * max(abs(ceiling), 1.0)
        if not total <= ceiling + tol:
            self._fail(
                "mass-conservation",
                f"{name} increased: {total!r} > initial {ceiling!r} "
                f"(excess {total - ceiling:.6g}) — gossip created mass",
                step=step,
            )

    def check_allclose(
        self,
        name: str,
        arr: np.ndarray,
        expected: np.ndarray,
        *,
        step: Optional[int] = None,
    ) -> None:
        """Elementwise agreement within tolerance (structured all-reduce)."""
        self.checks += 1
        a = np.asarray(arr, dtype=np.float64)
        e = np.asarray(expected, dtype=np.float64)
        scale = float(np.max(np.abs(e))) if e.size else 1.0
        tol = self.rel_tol * max(scale, 1.0)
        diff = np.abs(a - e)
        if not np.all(diff <= tol):
            bad = np.argwhere(~(diff <= tol))
            node = int(bad[0][0]) if bad.size else None
            self._fail(
                "exact-agreement",
                f"{name} deviates from the exact reduction by "
                f"{float(np.max(diff)):.6g} (> tol {tol:.3g})",
                step=step,
                node=node,
            )

    def check_row_stochastic(
        self, row_sums: np.ndarray, *, where: str = "trust matrix", atol: float = 1e-8
    ) -> None:
        """Eq. 1 post-normalization: every row of ``S`` sums to 1."""
        self.checks += 1
        sums = np.asarray(row_sums, dtype=np.float64).ravel()
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= atol))
        if bad.size:
            i = int(bad[0])
            self._fail(
                "row-stochastic",
                f"{where} is not row-stochastic after normalization: "
                f"row {i} sums to {sums[i]!r} ({bad.size} bad row(s))",
                node=i,
            )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"InvariantSanitizer(rel_tol={self.rel_tol}, checks={self.checks}, "
            f"cycle={self.cycle}, engine={self.engine!r})"
        )
