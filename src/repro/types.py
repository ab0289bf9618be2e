"""Shared value types used across the GossipTrust subsystems.

These are deliberately small, immutable records.  Hot numerical paths do
*not* use these objects element-wise — the vectorized engines keep state
in NumPy arrays — but protocol-level code (the message engine, the
overlay, the experiments) passes these around for clarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

__all__ = [
    "NodeId",
    "ReputationVector",
    "PeerClass",
    "TransactionOutcome",
]

#: Node identifier.  Nodes are indexed ``0 .. n-1`` in every engine.
NodeId = int


class PeerClass(Enum):
    """Behavioral class of a peer in a threat-model scenario."""

    HONEST = "honest"
    #: issues dishonest feedback and corrupts services, acting alone
    MALICIOUS_INDEPENDENT = "malicious_independent"
    #: member of a collusion group boosting each other's scores
    MALICIOUS_COLLUSIVE = "malicious_collusive"
    #: selected power node for the current aggregation round
    POWER = "power"


class TransactionOutcome(Enum):
    """Result of a single P2P transaction (e.g. a file download)."""

    AUTHENTIC = "authentic"
    INAUTHENTIC = "inauthentic"
    FAILED = "failed"


@dataclass
class ReputationVector:
    """A normalized global reputation vector ``V(t)``.

    Internally a mapping ``node id -> score``; scores sum to 1 (up to
    floating-point error).  ``cycle`` records the aggregation cycle ``t``
    at which the vector was produced.
    """

    scores: Dict[NodeId, float] = field(default_factory=dict)
    cycle: int = 0

    def score(self, node: NodeId) -> float:
        """Global reputation score of ``node`` (0.0 if unknown)."""
        return self.scores.get(node, 0.0)

    def top(self, k: int) -> Tuple[NodeId, ...]:
        """The ``k`` highest-reputation node ids, best first."""
        ranked = sorted(self.scores, key=lambda nid: (-self.scores[nid], nid))
        return tuple(ranked[:k])
