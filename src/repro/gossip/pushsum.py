"""Algorithm 1 — push-sum gossip for a single peer's global score.

Every node ``i`` holds a pair ``(x_i, w_i)``.  Per step it keeps half of
each and sends the other half to one uniformly random node; received
halves are summed (Eqs. 3-4).  The column sums ``sum_i x_i`` and
``sum_i w_i`` are invariant (mass conservation), and each node's ratio
``beta_i = x_i / w_i`` converges exponentially fast to
``sum x / sum w`` — which, with ``x_i(0) = s_ij * v_i(t)`` and
``w_i(0) = [i == j]``, is exactly ``v_j(t+1)`` of Eq. 2.

Two entry points:

* :func:`push_sum_step` — one synchronous step given each node's target.
* :func:`scripted_push_sum` — partners supplied per step, used to replay
  the paper's Fig. 2 / Table 1 three-node worked example bit-for-bit.

The engines gossip whole reputation vectors, not one score: see
:mod:`repro.gossip.engine` and :mod:`repro.gossip.vector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = ["PushSumResult", "scripted_push_sum", "push_sum_step"]


@dataclass
class PushSumResult:
    """Outcome of a push-sum run.

    Attributes
    ----------
    estimates:
        Per-node gossiped scores ``beta_i = x_i / w_i`` at termination.
    steps:
        Gossip steps executed.
    x, w:
        Final per-node masses (exposed for invariant checks).
    history:
        Per-step snapshots of ``(x, w)``.
    """

    estimates: np.ndarray
    steps: int
    x: np.ndarray
    w: np.ndarray
    history: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def push_sum_step(
    x: np.ndarray, w: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One synchronous push-sum step given each node's chosen target.

    Node ``i`` keeps ``(x_i/2, w_i/2)`` and delivers the other half to
    ``targets[i]``.  The inbound halves are grouped with ``np.bincount``
    (a C segment-sum keyed on the target ids) rather than the much
    slower unbuffered ``np.add.at`` — same sender-ascending accumulation
    order per receiver, so scripted replays stay bit-for-bit.
    """
    n = x.shape[0]
    if targets.shape != (n,):
        raise ValidationError(f"targets must have shape ({n},), got {targets.shape}")
    half_x = 0.5 * x
    half_w = 0.5 * w
    new_x = half_x + np.bincount(targets, weights=half_x, minlength=n)
    new_w = half_w + np.bincount(targets, weights=half_w, minlength=n)
    return new_x, new_w


def _estimates(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-node beta = x/w with 0/0 -> nan and x/0 -> inf, silently."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w > 0, x / np.where(w > 0, w, 1.0), np.where(x > 0, np.inf, np.nan))


def scripted_push_sum(
    x0: Sequence[float],
    w0: Sequence[float],
    partner_script: Sequence[Sequence[int]],
) -> PushSumResult:
    """Push-sum with an explicit partner choice per node per step.

    ``partner_script[k][i]`` is the node that ``i`` sends its half-share
    to at step ``k+1``.  Used to replay deterministic examples — the
    paper's Fig. 2 / Table 1 run is ``[[2, 0, 0], [1, 2, 1]]``.
    """
    x = np.asarray(x0, dtype=np.float64)
    w = np.asarray(w0, dtype=np.float64)
    if x.shape != w.shape or x.ndim != 1:
        raise ValidationError("x0 and w0 must be equal-length vectors")
    n = x.shape[0]
    history: List[Tuple[np.ndarray, np.ndarray]] = []
    for step_partners in partner_script:
        targets = np.asarray(step_partners, dtype=np.int64)
        if targets.shape != (n,):
            raise ValidationError(
                f"each script step needs {n} partners, got {targets.shape}"
            )
        if np.any(targets < 0) or np.any(targets >= n):
            raise ValidationError("partner ids out of range")
        if np.any(targets == np.arange(n)):
            raise ValidationError("a node cannot choose itself as the random partner")
        x, w = push_sum_step(x, w, targets)
        history.append((x.copy(), w.copy()))
    return PushSumResult(
        estimates=_estimates(x, w),
        steps=len(history),
        x=x,
        w=w,
        history=history,
    )
