"""Quality-of-feedback (QoF) scoring — the paper's §7 extension.

§7: "we suggest to keep two kinds of reputation scores on each peer
node: one to measure the quality-of-service (QoS) ... and another for
quality-of-feedback (QoF) by participating peers.  We suggest
integrating these two scores together."

The QoS score is the global reputation vector GossipTrust already
computes.  The QoF score implemented here measures *how much a peer's
outbound ratings agree with the community consensus*: a rater whose
normalized row tracks the aggregated reputation of the peers it rated
is a reliable witness; a rater who praises peers the community
distrusts (the §6.1 attackers do exactly this) gets a low QoF.

The two scores integrate by vote modulation: in the aggregation
iteration each rater's walk mass counts in proportion to its QoF
(``V <- normalize(S^T (qof * V))``), so dishonest witnesses steer the
chain less.  A few alternation rounds (scores -> QoF -> scores) damp
dishonest feedback *without any power nodes* — an independent defense
axis, evaluated by the ``qof`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.trust.matrix import TrustMatrix
from repro.utils.validation import check_in_range, check_vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import GossipTrustConfig

__all__ = ["QofResult", "feedback_quality", "QofWeightedAggregation"]

#: :func:`feedback_quality` exponent of :class:`QofWeightedAggregation`
_SHARPNESS = 2.0

#: floor on :class:`QofWeightedAggregation` vote weights, so no rater is
#: erased entirely (keeps the chain irreducible)
_MIN_WEIGHT = 0.05


def feedback_quality(
    S: TrustMatrix, reputation: np.ndarray, *, sharpness: float = 1.0
) -> np.ndarray:
    """Per-rater quality-of-feedback in [0, 1].

    The attack signature of §6.1 is *inversion*: dishonest raters praise
    peers the community distrusts and trash the ones it trusts.  After
    Eq. 1 normalization the informative part of a row is its *support*
    (whom the rater endorses at all — positive balances survive, the
    rest clamp to zero), so QoF scores the consensus reputation of the
    rater's endorsement distribution — one step of the trust walk::

        z_i   = sum_j s_ij * v_j          (endorsement quality)
        qof_i = (z_i / max_k z_k) ** sharpness

    A rater whose endorsements lead to the community's most reputable
    peers scores near 1; an inverted rater, whose endorsements lead to
    distrusted peers, scores near 0.  Raters with no outbound scores
    carry no signal and get the population-mean QoF.

    Parameters
    ----------
    S:
        The normalized trust matrix (rows are rating distributions).
    reputation:
        Current global reputation estimates (QoS scores), length n.
    sharpness:
        Exponent steering how hard poor endorsement quality is punished.
    """
    check_in_range("sharpness", sharpness, low=0.0)
    n = S.n
    v = check_vector("reputation", reputation, size=n)
    z = S.sparse() @ v  # z_i = s_i . v
    top = float(z.max())
    if top <= 0:
        return np.full(n, 1.0)
    qof = (z / top) ** sharpness
    # Raters with empty rows (z == 0 by construction) get the mean QoF
    # of the informative raters: absence of feedback is not evidence of
    # dishonesty.
    empty = np.asarray((S.sparse() != 0).sum(axis=1)).ravel() == 0
    if empty.any() and (~empty).any():
        qof[empty] = float(qof[~empty].mean())
    return qof


@dataclass
class QofResult:
    """Outcome of QoF-weighted aggregation."""

    #: final QoS (reputation) vector
    reputation: np.ndarray
    #: final per-rater QoF scores
    qof: np.ndarray
    #: QoF/aggregation alternation rounds executed
    rounds: int
    #: reputation vectors after each round (first is the unweighted one)
    trajectory: List[np.ndarray]


class QofWeightedAggregation:
    """Reputation aggregation with QoF-modulated votes.

    The integration §7 asks for: each rater's vote in the aggregation
    counts in proportion to its feedback quality.  The iteration becomes

        V(t+1) = normalize( S^T (qof ⊙ V(t)) )

    — a rater contributes ``qof_i * v_i`` of walk mass instead of
    ``v_i``, so dishonest witnesses steer the chain less without any
    noise being injected into honest rows.  QoF itself is refreshed
    against the current vector every ``refresh_every`` cycles (it is a
    fixed-point alternation: better scores -> better witness detection
    -> better scores).

    Parameters
    ----------
    config:
        Aggregation parameters; ``alpha``/power nodes compose normally.
    rounds:
        QoF refresh rounds (2-3 suffice; the alternation settles fast).

    Feedback quality is computed with ``sharpness=_SHARPNESS``; vote
    weights are floored at ``_MIN_WEIGHT``.
    """

    def __init__(
        self,
        config: Optional["GossipTrustConfig"] = None,
        *,
        rounds: int = 3,
    ) -> None:
        if rounds < 1:
            raise ValidationError(f"rounds must be >= 1, got {rounds}")
        self.config = config
        self.rounds = int(rounds)

    def run(self, S: TrustMatrix) -> QofResult:
        """Run the alternation on a trust matrix.

        The first QoF computation judges feedback against the
        alternation's own round-0 aggregation.
        """
        # Imported here: repro.core depends on repro.trust, so a
        # module-level import would be circular.
        from repro.core.aggregation import exact_global_reputation
        from repro.core.config import GossipTrustConfig

        n = S.n
        cfg = self.config or GossipTrustConfig(n=n)
        if cfg.n != n:
            cfg = cfg.with_updates(n=n)
        trajectory: List[np.ndarray] = []
        v = exact_global_reputation(S, cfg, raise_on_budget=False).vector
        trajectory.append(v.copy())
        qof = np.ones(n)
        judge = v
        for _round in range(1, self.rounds + 1):
            qof = np.maximum(
                feedback_quality(S, judge, sharpness=_SHARPNESS),
                _MIN_WEIGHT,
            )
            v = self._weighted_fixed_point(S, qof, cfg)
            trajectory.append(v.copy())
            judge = v
        return QofResult(
            reputation=v, qof=qof, rounds=self.rounds, trajectory=trajectory
        )

    def _weighted_fixed_point(
        self, S: TrustMatrix, qof: np.ndarray, cfg: "GossipTrustConfig"
    ) -> np.ndarray:
        """Iterate ``V <- normalize(S^T (qof ⊙ V))`` to its fixed point."""
        n = S.n
        ST = S.sparse().T.tocsr()
        v = np.full(n, 1.0 / n)
        for _ in range(cfg.max_cycles):
            # Lazy smoothing keeps near-periodic chains convergent
            # without moving the fixed point (see baselines.centralized).
            v_new = 0.5 * (v + ST @ (qof * v))
            total = v_new.sum()
            if total <= 0:
                raise ValidationError("QoF weighting collapsed all walk mass")
            v_new /= total
            if float(np.abs(v_new - v).sum()) < 1e-10:
                return v_new
            v = v_new
        return v
