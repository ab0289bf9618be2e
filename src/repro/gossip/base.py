"""The one engine contract every gossip executor implements.

The paper's architecture (Fig. 1(b)) is a single aggregation loop
driving an *interchangeable* gossip executor.  This module is that
interchange point:

* :class:`GossipCycleResult` — the uniform outcome of one aggregation
  cycle, whichever engine produced it.  Besides the protocol outputs
  (``v_next``, ``exact``, ``steps``) it carries per-cycle telemetry
  (messages sent/dropped, mass lost) so the orchestration layer can
  report cost uniformly.
* :class:`CycleEngine` — the abstract base every engine subclasses:
  ``run_cycle(S, v) -> GossipCycleResult`` where ``S`` is a
  :class:`~repro.trust.matrix.TrustMatrix` (raw arrays and sparse
  matrices are also coerced, for tests and ad-hoc use).
* :func:`coerce_csr` — the shared input coercion, so every engine
  accepts the same spectrum of matrix forms.
* ``_csc_matvecs`` — scipy's C scatter-add kernel (``Y += A @ X`` for a
  CSC ``A``), imported once behind a guard: the sync engine's step and
  the message engine's merge both run on it; ``_csc_matvec``, its
  one-vector form, computes :func:`exact_aggregate`.

Engines register themselves with :mod:`repro.gossip.factory`; the
orchestration layer (:class:`~repro.core.gossiptrust.GossipTrust`), the
experiments, and the CLI construct them exclusively through
:func:`~repro.gossip.factory.make_engine`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional, Union

import numpy as np
from scipy import sparse

from repro.analysis.sanitizer import InvariantSanitizer
from repro.errors import ValidationError
from repro.trust.matrix import TrustMatrix, as_csr

try:  # the C kernels behind scipy's CSC matrix-times-dense products
    from scipy.sparse._sparsetools import csc_matvec as _csc_matvec
    from scipy.sparse._sparsetools import csc_matvecs as _csc_matvecs
except ImportError:  # pragma: no cover - very old scipy
    _csc_matvec = _csc_matvecs = None

__all__ = [
    "GossipCycleResult",
    "CycleEngine",
    "TrustInput",
    "coerce_csr",
    "exact_aggregate",
]

#: anything an engine accepts as the trust matrix ``S``
TrustInput = Union[TrustMatrix, sparse.spmatrix, np.ndarray]


@dataclass
class GossipCycleResult:
    """Outcome of one gossiped aggregation cycle — any engine.

    Attributes
    ----------
    v_next:
        The cycle's output reputation vector.
    exact:
        The exact ``S^T v`` for the same cycle (error reference).
    steps:
        Gossip steps (or rounds) until the engine's termination
        criterion fired.
    gossip_error:
        Average relative error of gossiped vs exact scores.
    converged:
        Whether the criterion was met within the budget.
    mode:
        Engine-specific execution mode (``"full"``, ``"probe"``,
        ``"message"``, ``"async"``, ``"structured"``).
    node_disagreement:
        Max over sampled components of (max - min) per-node estimate at
        termination — how far nodes are from exact consensus.  ``nan``
        when the engine does not sample per-node state.
    messages_sent:
        Point-to-point messages sent during the cycle (0 for engines
        that do not model messages).
    messages_dropped:
        Messages lost to the transport during the cycle.
    mass_lost_fraction:
        Fraction of the (x, w) push-sum mass lost to drops/departures.
    mass_restorations:
        Times the engine's mass-restoration guard fired during the
        cycle (renormalize or restart; 0 when the guard is off or the
        loss budget was never crossed).
    phase_times:
        Wall-clock seconds per cycle phase (``setup``, ``oracle``,
        ``alloc``, ``kernel``, ``estimate``) for engines that break
        their cycle down; empty for engines that do not.
    """

    v_next: np.ndarray
    exact: np.ndarray
    steps: int
    gossip_error: float
    converged: bool
    mode: str
    node_disagreement: float = float("nan")
    messages_sent: int = 0
    messages_dropped: int = 0
    mass_lost_fraction: float = 0.0
    mass_restorations: int = 0
    phase_times: Dict[str, float] = field(default_factory=dict)


class CycleEngine(ABC):
    """Abstract base of every gossip-cycle executor.

    Subclasses implement :meth:`run_cycle` and set :attr:`name` (the
    registry identifier).
    """

    #: registry name (``"sync"``, ``"message"``, ``"async"``, ``"structured"``)
    name: ClassVar[str] = ""

    #: armed runtime invariant checker, or None (the default: no checks)
    sanitizer: Optional[InvariantSanitizer] = None

    @abstractmethod
    def run_cycle(self, S: TrustInput, v: np.ndarray) -> GossipCycleResult:
        """Estimate ``S^T v`` for one aggregation cycle."""

    def arm_sanitizer(
        self, sanitizer: Optional[InvariantSanitizer] = None
    ) -> InvariantSanitizer:
        """Arm runtime invariant checks on this engine.

        Every engine then validates the push-sum conservation laws at
        its convergence-check cadence (see
        :mod:`repro.analysis.sanitizer`) and raises
        :class:`~repro.errors.InvariantViolation` on any breach.  Pass a
        preconfigured :class:`InvariantSanitizer` to share one checker
        (and its counters) across engines; by default a fresh one is
        built.  Returns the armed instance so callers can inspect its
        ``checks``/``cycle`` counters afterwards.
        """
        if sanitizer is None:
            sanitizer = InvariantSanitizer()
        self.sanitizer = sanitizer
        return sanitizer


def coerce_csr(S: TrustInput, n: int) -> sparse.csr_matrix:
    """Coerce any accepted matrix form to an (n, n) CSR matrix.

    The form is taken to CSR by :func:`~repro.trust.matrix.as_csr`; a
    shape other than ``(n, n)`` raises.
    """
    mat = as_csr(S)
    if mat.shape != (n, n):
        raise ValidationError(f"matrix shape {mat.shape} does not match engine n={n}")
    return mat


def exact_aggregate(S: TrustInput, v: np.ndarray, n: int) -> np.ndarray:
    """Exact one-cycle aggregation ``S^T @ v`` as a sparse matvec.

    The oracle every engine measures its gossip error against.  A
    :class:`TrustMatrix` serves its cached transpose; every other form
    goes through :func:`coerce_csr`, whose CSR arrays are those of the
    CSC matrix ``S^T``: the product is the ``csc_matvec`` call that
    ``S.T @ v`` makes, without building the transposed matrix object.
    """
    v = np.asarray(v, dtype=np.float64)
    if isinstance(S, TrustMatrix):
        return np.asarray(S.aggregate(v)).ravel()
    mat = coerce_csr(S, n)
    if _csc_matvec is None or mat.dtype != np.float64:  # pragma: no cover
        return np.asarray(mat.T @ v).ravel()
    out = np.zeros(n)
    _csc_matvec(n, n, mat.indptr, mat.indices, mat.data, np.ascontiguousarray(v), out)
    return out
