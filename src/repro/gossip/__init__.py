"""Gossip aggregation protocols (the paper's §4-§5).

* :mod:`repro.gossip.base` — the one engine contract: the
  :class:`CycleEngine` ABC and the uniform :class:`GossipCycleResult`.
* :mod:`repro.gossip.factory` — :func:`make_engine`, the one way to
  build an engine by name (``sync``, ``message``, ``async``,
  ``structured``).
* :mod:`repro.gossip.pushsum` — Algorithm 1: one push-sum step for a
  single peer's score, and a step-scripted replay of the paper's
  Table 1 worked example.
* :mod:`repro.gossip.vector` — Algorithm 2 node state: the reputation
  vector as ``<x, id, w>`` triplets, one population per store.
* :mod:`repro.gossip.convergence` — the delta (aggregation-cycle)
  convergence detector; each engine checks epsilon in its own step
  loop.
* :mod:`repro.gossip.engine` — synchronous vectorized gossip engine for
  large sweeps (all nodes' state in NumPy arrays).
* :mod:`repro.gossip.message_engine` — message-level engine on the DES
  with latency, loss, link failure, and churn, on one of two clocks:
  synchronized rounds (``message``) or per-node Poisson clocks
  (``async``).
* :mod:`repro.gossip.structured` — §7's DHT-ordered deterministic
  all-reduce acceleration.
"""

from repro.gossip.base import CycleEngine, GossipCycleResult
from repro.gossip.convergence import (
    CycleConvergenceDetector,
    average_relative_error,
)
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.factory import engine_names, make_engine
from repro.gossip.message_engine import (
    AsyncMessageGossipEngine,
    MessageGossipEngine,
    MessageGossipResult,
)
from repro.gossip.pushsum import PushSumResult, scripted_push_sum
from repro.gossip.structured import StructuredAggregationEngine

__all__ = [
    "scripted_push_sum",
    "PushSumResult",
    "CycleConvergenceDetector",
    "average_relative_error",
    "CycleEngine",
    "GossipCycleResult",
    "engine_names",
    "make_engine",
    "SynchronousGossipEngine",
    "MessageGossipEngine",
    "MessageGossipResult",
    "AsyncMessageGossipEngine",
    "StructuredAggregationEngine",
]
