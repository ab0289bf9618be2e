"""GossipTrust — gossip-based reputation aggregation for unstructured P2P networks.

A full reproduction of Zhou & Hwang, *Gossip-based Reputation
Aggregation for Unstructured Peer-to-Peer Networks* (IPDPS 2007),
including the push-sum gossip protocol, power-node leverage, the
unstructured overlay and file-sharing workload it is evaluated on, and
the EigenTrust / PowerTrust / NoTrust baselines.

Quickstart
----------
>>> import numpy as np
>>> from repro import GossipTrust, GossipTrustConfig, TrustMatrix
>>> raw = np.array([[0, 4, 1], [3, 0, 1], [2, 2, 0]], dtype=float)
>>> S = TrustMatrix.from_dense_raw(raw)
>>> result = GossipTrust(S, GossipTrustConfig(n=3, alpha=0.0, seed=1)).run()
>>> result.converged
True

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
regenerators of every table and figure in the paper.
"""

from repro.core.aggregation import ExactAggregation, exact_global_reputation
from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust, GossipTrustResult
from repro.core.power_nodes import PowerNodeSelector
from repro.errors import ReproError
from repro.gossip.base import CycleEngine, GossipCycleResult
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.factory import engine_names, make_engine
from repro.gossip.message_engine import AsyncMessageGossipEngine, MessageGossipEngine
from repro.gossip.pushsum import scripted_push_sum
from repro.gossip.structured import StructuredAggregationEngine
from repro.metrics.telemetry import CycleRecord, CycleTelemetry
from repro.trust.feedback import FeedbackLedger
from repro.trust.matrix import TrustMatrix
from repro.trust.qof import QofWeightedAggregation, feedback_quality
from repro.types import PeerClass, ReputationVector, TransactionOutcome
from repro.workload.object_reputation import ObjectReputation

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "GossipTrust",
    "GossipTrustConfig",
    "GossipTrustResult",
    "PowerNodeSelector",
    "ExactAggregation",
    "exact_global_reputation",
    "CycleEngine",
    "GossipCycleResult",
    "make_engine",
    "engine_names",
    "CycleRecord",
    "CycleTelemetry",
    "SynchronousGossipEngine",
    "MessageGossipEngine",
    "AsyncMessageGossipEngine",
    "StructuredAggregationEngine",
    "scripted_push_sum",
    "TrustMatrix",
    "FeedbackLedger",
    "ReputationVector",
    "PeerClass",
    "TransactionOutcome",
    "ReproError",
    "QofWeightedAggregation",
    "feedback_quality",
    "ObjectReputation",
]
