"""The paper's theoretical bound on aggregation cycles.

§4.1 cites the PowerTrust proof that the number of aggregation cycles
satisfies ``d <= ceil(log_b delta)`` with ``b = lambda_2 / lambda_1`` of
the trust matrix.  The iteration GossipTrust runs is
``V(t+1) = (1 - alpha) S^T V(t) + alpha P``: the greedy factor
damps every non-principal mode by ``1 - alpha`` per cycle, so the error
contracts at ``b = (1 - alpha) |lambda_2 / lambda_1|``, following the
eigenvalue-ratio analysis of Awasthi and Singh (arXiv:1603.00589).
:func:`theoretical_cycle_bound` evaluates that bound so Table 3 can
report measured-vs-predicted cycle counts.
"""

from __future__ import annotations

import math

from repro.errors import ValidationError
from repro.trust.matrix import TrustMatrix

__all__ = ["theoretical_cycle_bound"]


def theoretical_cycle_bound(S: TrustMatrix, delta: float, *, alpha: float) -> int:
    """``ceil(log_b delta)`` with ``b = (1 - alpha) |lambda_2/lambda_1|``.

    Returns a large sentinel (10_000) when the contraction rate is
    degenerate (``b`` ~ 1, possible only at ``alpha = 0``), where the
    bound is uninformative.
    """
    if not delta > 0:
        raise ValidationError(f"delta must be > 0, got {delta}")
    if not 0.0 <= alpha < 1.0:
        raise ValidationError(f"alpha must be in [0, 1), got {alpha}")
    lam1, lam2 = S.spectral_gap()
    if lam1 <= 0 or lam2 <= 0:
        return 1
    b = (1.0 - alpha) * lam2 / lam1
    if b >= 1.0 - 1e-12:
        return 10_000
    return int(math.ceil(math.log(delta) / math.log(b)))
