"""Local-trust substrate: feedback ledgers and the normalized trust matrix.

Implements §4.1 of the paper: raw local scores ``r_ij`` accumulated from
transactions, row normalization into the stochastic matrix
``S = (s_ij)`` (Eq. 1), and pre-trust / power-node distributions used by
the greedy-factor mixing.
"""

from repro.trust.feedback import FeedbackLedger
from repro.trust.matrix import TrustMatrix
from repro.trust.pretrust import PretrustVector
from repro.trust.qof import QofWeightedAggregation, feedback_quality

__all__ = [
    "FeedbackLedger",
    "TrustMatrix",
    "PretrustVector",
    "feedback_quality",
    "QofWeightedAggregation",
]
