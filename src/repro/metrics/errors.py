"""Error and ranking metrics for reputation vectors.

The headline metric is the paper's Eq. 8 RMS relative aggregation
error::

    E = sqrt( (1/n) * sum_i ((v_i - u_i) / v_i)^2 )

with ``v`` the calculated (reference) and ``u`` the gossiped/attacked
scores.  Ranking metrics matter too: what a reputation system is *for*
is choosing the best peer, so Kendall tau and top-k overlap are
reported alongside.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "rms_relative_error",
    "kendall_tau",
    "rank_overlap",
]

#: reference scores at or below this magnitude count as zero
_ZERO_SCORE = 1e-12


def _pair(v: np.ndarray, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(v, dtype=np.float64)
    b = np.asarray(u, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"vectors must be equal-length 1-D, got {a.shape} vs {b.shape}")
    return a, b


def rms_relative_error(
    v: np.ndarray,
    u: np.ndarray,
    *,
    cap: Optional[float] = None,
) -> float:
    """Eq. 8: RMS of per-peer relative errors ``(v_i - u_i)/v_i``.

    Components where the reference ``v_i`` is (numerically) zero are
    excluded rather than floored — a peer with zero calculated
    reputation has no defined relative error, and flooring would let a
    single such peer dominate the sum.

    ``cap`` winsorizes per-component relative errors before squaring.
    Relative error is heavy-tailed on near-zero scores (a peer whose
    tiny score is off 50x contributes 2500 to the mean); operationally a
    score off 10x and one off 50x are equally broken, so the threat-
    model experiments cap at 10 to keep seed-to-seed curves comparable.
    """
    a, b = _pair(v, u)
    mask = np.abs(a) > _ZERO_SCORE
    if not mask.any():
        raise ValidationError("reference vector is all zeros; RMS relative error undefined")
    rel = np.abs((a[mask] - b[mask]) / a[mask])
    if cap is not None:
        if cap <= 0:
            raise ValidationError(f"cap must be > 0, got {cap}")
        rel = np.minimum(rel, cap)
    return float(np.sqrt(np.mean(rel**2)))


def kendall_tau(v: np.ndarray, u: np.ndarray) -> float:
    """Kendall rank correlation between two score vectors (1 = same order).

    The first call imports ``scipy.stats``.  This module does not import
    it at load time: on its own it roughly doubles the RSS of
    ``import repro``.
    """
    from scipy import stats

    a, b = _pair(v, u)
    tau, _p = stats.kendalltau(a, b)
    return float(tau)


def rank_overlap(v: np.ndarray, u: np.ndarray, k: int) -> float:
    """Fraction of the reference top-``k`` also in the estimate top-``k``.

    The operationally decisive metric: reputation-based selection only
    ever looks at the top of the ranking.
    """
    a, b = _pair(v, u)
    if not 1 <= k <= a.shape[0]:
        raise ValidationError(f"k must be in [1, {a.shape[0]}], got {k}")
    top_v = set(np.argsort(-a, kind="stable")[:k].tolist())
    top_u = set(np.argsort(-b, kind="stable")[:k].tolist())
    return len(top_v & top_u) / k
