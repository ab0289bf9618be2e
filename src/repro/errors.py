"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subclasses are
grouped by subsystem; each carries enough context in its message to be
actionable without a debugger.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ValidationError",
    "ConvergenceError",
    "InvariantViolation",
    "SimulationError",
    "NetworkError",
    "UnknownNodeError",
    "PartitionedNetworkError",
    "StorageError",
    "BloomCapacityError",
    "CryptoError",
    "SignatureError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A configuration object contains inconsistent or illegal values."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad shape, range, or dtype)."""


class ConvergenceError(ReproError):
    """An iterative computation exceeded its step budget without converging."""

    def __init__(self, message: str, *, steps: int = -1, residual: float = float("nan")):
        super().__init__(message)
        #: number of steps performed before giving up (-1 if unknown)
        self.steps = steps
        #: last observed residual (NaN if unknown)
        self.residual = residual


class InvariantViolation(ReproError):
    """A runtime-sanitizer invariant check failed.

    Raised by :class:`repro.analysis.sanitizer.InvariantSanitizer` when
    an armed engine breaks one of the protocol's conserved quantities —
    push-sum mass conservation, non-negative consensus mass, finiteness,
    or trust-matrix row-stochasticity.  Carries structured context so a
    violation names *where* in the run it happened.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str = "",
        engine: str = "",
        cycle: "int | None" = None,
        step: "int | None" = None,
        node: "int | None" = None,
    ):
        where = []
        if engine:
            where.append(f"engine {engine!r}")
        if cycle is not None:
            where.append(f"cycle {cycle}")
        if step is not None:
            where.append(f"step {step}")
        if node is not None:
            where.append(f"node {node}")
        prefix = f"[{invariant}] " if invariant else ""
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{prefix}{message}{suffix}")
        #: short name of the violated invariant (e.g. ``"mass-conservation"``)
        self.invariant = invariant
        #: engine registry name, when a cycle engine raised
        self.engine = engine
        #: 1-based aggregation cycle the sanitizer was in (None if unknown)
        self.cycle = cycle
        #: gossip step / round within the cycle (None if unknown)
        self.step = step
        #: offending node id, when one can be named
        self.node = node


class SimulationError(ReproError):
    """The discrete-event simulator reached an illegal state."""


class NetworkError(ReproError):
    """Overlay-network level failure."""


class UnknownNodeError(NetworkError, KeyError):
    """A node id was referenced that is not part of the overlay."""


class PartitionedNetworkError(NetworkError):
    """An operation required a connected overlay but the graph is partitioned."""


class StorageError(ReproError):
    """Reputation-storage level failure."""


class BloomCapacityError(StorageError):
    """A Bloom filter was asked to hold more items than it was sized for."""


class CryptoError(ReproError):
    """Failure in the simulated identity-based crypto layer."""


class SignatureError(CryptoError):
    """A message signature failed verification."""


class ExperimentError(ReproError):
    """An experiment harness was misused or produced inconsistent output."""
