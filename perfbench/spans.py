"""Layer spans for the traced run: wrappers around public calls, self time.

:func:`installed` swaps timing wrappers in for the public functions in
:data:`TARGETS` and puts the originals back on exit.  A wrapper records
a span (name, start, end, parent, op) only while the :class:`Tracer`
has an operation open, so correctness checks between operations stay
out of the per-layer numbers.  Spans stay in memory and are written as
JSON lines by :meth:`Tracer.write`.

The wrappers only time the calls: they pass arguments and results
through untouched, so a traced run computes bitwise the same vectors
as an untraced one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.gossiptrust import GossipTrust
from repro.core.power_nodes import PowerNodeSelector
from repro.experiments import synthetic
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.message_engine import MessageGossipEngine
from repro.service.reputation import ReputationService
from repro.sim.engine import Simulator
from repro.storage.reputation_store import BloomReputationStore
from repro.trust.feedback import FeedbackLedger
from repro.trust.matrix import TrustMatrix
from repro.trust.pretrust import PretrustVector

__all__ = ["Span", "Tracer", "TARGETS", "installed", "self_times", "layer_metrics"]

#: the sync engine's ``GossipCycleResult.phase_times`` keys
PHASES = ("setup", "oracle", "alloc", "kernel", "estimate")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in :attr:`Tracer.spans`, or None
    parent: Optional[int]
    #: operation index, or "setup"
    op: Any


@dataclasses.dataclass
class CycleCounts:
    """What one gossip cycle reported, keyed to its span."""

    span: int
    steps: int
    phases: Dict[str, float]
    gossip_error: float


class Tracer:
    """Collects spans in memory; :meth:`enter`/:meth:`leave` bracket an operation."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.cycles: List[CycleCounts] = []
        self._ops: List[Any] = []
        self._open: List[int] = []

    @property
    def op(self) -> Any:
        """The open operation, or None between operations."""
        return self._ops[-1] if self._ops else None

    def enter(self, op: Any) -> None:
        self._ops.append(op)

    def leave(self) -> None:
        self._ops.pop()

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def _record_cycle(tracer: Tracer, index: int, result: Any) -> None:
    tracer.cycles.append(
        CycleCounts(index, int(result.steps), dict(result.phase_times), float(result.gossip_error))
    )


#: (owner, attribute, span name, result hook) for every traced public call
TARGETS = (
    (GossipTrust, "run", "core.run", None),
    (PowerNodeSelector, "select", "core.power_select", None),
    (SynchronousGossipEngine, "run_cycle", "gossip.run_cycle", _record_cycle),
    (MessageGossipEngine, "run_cycle", "gossip.run_cycle", _record_cycle),
    (PretrustVector, "mix", "trust.mix", None),
    (TrustMatrix, "from_ledger", "trust.from_ledger", None),
    (FeedbackLedger, "drain_dirty", "trust.drain_dirty", None),
    (TrustMatrix, "apply_row_deltas", "trust.apply_row_deltas", None),
    (BloomReputationStore, "build", "storage.build", None),
    (BloomReputationStore, "lookup", "storage.lookup", None),
    (ReputationService, "run_epoch", "service.epoch", None),
    (ReputationService, "lookup", "service.lookup", None),
    (ReputationService, "ingest", "service.ingest", None),
    (Simulator, "run", "sim.run", None),
    (synthetic, "synthetic_trust_matrix", "experiments.synthetic", None),
)


def _wrapped(
    tracer: Tracer, name: str, original: Any, hook: Optional[Callable[..., None]]
) -> Any:
    if isinstance(original, classmethod):
        return classmethod(_wrapped(tracer, name, original.__func__, hook))

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.op is None:
            return original(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, index, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the ``with`` block; always restore the originals."""
    saved = []
    try:
        for owner, attr, name, hook in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapped(tracer, name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(
    tracer: Tracer, plain: Sequence[Any], traced: Sequence[Any], setup_s: float
) -> Dict[str, float]:
    """The per-layer metrics of a traced run.

    ``plain`` and ``traced`` are the same operations run untraced and
    traced; ``setup_s`` is the traced set-up's wall time.  A layer the
    workload never calls reports 0 for its counts, shares and rates.
    """
    spans = tracer.spans
    total: Dict[str, float] = defaultdict(float)
    setup_total: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    own: Dict[str, List[float]] = defaultdict(list)
    for span, self_s in zip(spans, self_times(spans)):
        duration = span.end - span.start
        if span.op == "setup":
            setup_total[span.name] += duration
            continue
        total[span.name] += duration
        durations[span.name].append(duration)
        own[span.name].append(self_s)

    def p50(name: str, series: Dict[str, List[float]] = durations) -> float:
        return statistics.median(series[name]) if series[name] else 0.0

    cycles = [c for c in tracer.cycles if spans[c.span].op != "setup"]
    steps = sum(c.steps for c in cycles)
    phases: Dict[str, float] = defaultdict(float)
    for c in cycles:
        for phase, seconds in c.phases.items():
            phases[phase] += seconds
    counts: Dict[str, float] = defaultdict(float)
    for op in traced:
        for key, value in op.counters.items():
            counts[key] += value
    cycle_s, epoch_s = total["gossip.run_cycle"], total["service.epoch"]
    overhead = statistics.median(o.wall_s for o in traced) / statistics.median(
        o.wall_s for o in plain
    )
    metrics = {
        "gossip.run_cycle_s.p50": p50("gossip.run_cycle"),
        "gossip.steps": steps,
        "gossip.step_us": _share(cycle_s, steps) * 1e6,
        "gossip.error.max": max((c.gossip_error for c in cycles), default=0.0),
        "core.run_s.p50": p50("core.run"),
        "core.run_self_s.p50": p50("core.run", own),
        "core.cycles": sum(op.cycles for op in traced),
        "core.power_select_us.p50": p50("core.power_select") * 1e6,
        "trust.mix_us.p50": p50("trust.mix") * 1e6,
        "trust.from_ledger_frac": _share(setup_total["trust.from_ledger"], setup_s),
        "trust.drain_dirty_frac": _share(total["trust.drain_dirty"], epoch_s),
        "trust.apply_row_deltas_frac": _share(total["trust.apply_row_deltas"], epoch_s),
        "trust.rows_patched": int(counts["rows_patched"]),
        "storage.build_frac": _share(total["storage.build"], epoch_s),
        "storage.lookups_per_s": _share(len(durations["storage.lookup"]), total["storage.lookup"]),
        "storage.misbracket_frac": _share(counts["misbracketed"], counts["lookups"]),
        "service.epoch_self_frac": _share(sum(own["service.epoch"]), epoch_s),
        "service.lookup_self_frac": _share(sum(own["service.lookup"]), total["service.lookup"]),
        "service.ingests_per_s": _share(len(durations["service.ingest"]), total["service.ingest"]),
        "sim.run_frac": _share(total["sim.run"], cycle_s),
        "sim.events": int(counts["events"]),
        "sim.events_per_s": _share(counts["events"], total["sim.run"]),
        "network.messages": int(counts["messages"]),
        "network.bytes_per_message": _share(counts["bytes"], counts["messages"]),
        "network.dropped": int(counts["dropped"]),
        "network.bytes_per_aggregation": _share(counts["bytes"], len(traced)),
        "experiments.synthetic_frac": _share(setup_total["experiments.synthetic"], setup_s),
        "trace.overhead_frac": overhead - 1.0,
        "trace.spans": len(spans),
    }
    for phase in PHASES:
        metrics[f"gossip.phase.{phase}_frac"] = _share(phases[phase], cycle_s)
    return metrics
