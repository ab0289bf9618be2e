"""The discrete-event simulation kernel.

Determinism contract: given the same schedule of calls, the kernel
replays identically.  Events scheduled for the same simulated time fire
in the order they were scheduled (a monotone sequence number breaks
heap ties), so no behaviour ever depends on heap internals.

The heap holds plain ``(when, seq, fn, args)`` entries and firing one
is ``fn(*args)``.  :meth:`Simulator.call_at` / :meth:`Simulator.call_in`
push their callable directly — no event object, no closure — because
the per-message transport path schedules one call per message.  There
are no processes: a recurring activity reschedules itself with a call.

A *batch* (:meth:`Simulator.call_batch_in`) schedules many timed items
under one callback — a message round in one heap entry.  It reserves one
sequence number per item, in item order, and sits in the heap under its
earliest ``(when, seq)``.  When it pops, the callback receives the
longest run of items that fire before the next heap entry, ``until``
and ``max_events``; the rest go back into the heap.  Each item counts
as one event, so a batch fires exactly as its items would one call
apiece — provided the callback schedules nothing, which is checked.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["Simulator"]


class _Batch:
    """The unfired items of one :meth:`Simulator.call_batch_in` entry.

    ``when``/``seq`` are the items' times and reserved sequence numbers
    sorted by ``(when, seq)``, ``items`` their indices in the scheduling
    call, and ``pos`` the first item not yet fired.  Its heap entry is
    ``(when[pos], seq[pos], _Batch, batch)``: the class in the callable
    slot marks it for the run loop.
    """

    __slots__ = ("when", "seq", "items", "pos", "fn", "args")

    def __init__(
        self,
        when: np.ndarray,
        seq: np.ndarray,
        items: np.ndarray,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
    ) -> None:
        self.when = when
        self.seq = seq
        self.items = items
        self.pos = 0
        self.fn = fn
        self.args = args


class Simulator:
    """Binary-heap discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> log = []
    >>> sim.call_in(5.0, lambda: log.append(sim.now))
    >>> sim.run()
    >>> log
    [5.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable[..., Any], Any]] = []
        self._seq = 0
        self._event_count = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events fired since construction (a cheap progress gauge)."""
        return self._event_count

    # -- scheduling ----------------------------------------------------

    def _push(self, when: float, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now={self._now}"
            )
        heapq.heappush(self._queue, (when, self._seq, fn, args))
        self._seq += 1

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        Returns ``None``: a scheduled call cannot be waited on or
        cancelled.
        """
        self._push(when, fn, args)

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` time units (returns ``None``)."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self._push(self._now + delay, fn, args)

    def call_batch_in(self, delays: np.ndarray, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule item ``i`` of a batch ``delays[i]`` time units from now.

        Fires like ``call_in(delays[i], ...)`` once per item, in item
        order, except that ``fn(items, *args)`` receives every item that
        fires in one go: ``items`` is an array of item indices in firing
        order.  ``fn`` must not schedule anything (a
        :class:`~repro.errors.SimulationError` otherwise), because the
        items of one call all fire before anything it scheduled could.
        """
        delays = np.asarray(delays, dtype=np.float64)
        k = delays.size
        if k == 0:
            return
        if delays.min() < 0:
            raise SimulationError(f"delays must be >= 0, got {delays.min()}")
        when = self._now + delays
        order = np.argsort(when, kind="stable")
        seq = order + self._seq
        self._seq += k
        batch = _Batch(when[order], seq, order, fn, args)
        heapq.heappush(self._queue, (float(batch.when[0]), int(seq[0]), _Batch, batch))

    # -- execution -----------------------------------------------------

    def _fire_batch(self, batch: _Batch, until: Optional[float], budget: Optional[int]) -> int:
        """Fire the items of a popped batch that come before the next entry.

        Fires at most ``budget`` items and none after ``until``; pushes
        the rest back under their earliest key.  Returns the fired count.
        """
        pos = batch.pos
        when = batch.when[pos:]
        count = when.size
        queue = self._queue
        if queue:
            # items strictly before the next heap key (when, seq)
            next_when, next_seq = queue[0][0], queue[0][1]
            lo = int(when.searchsorted(next_when, "left"))
            hi = int(when.searchsorted(next_when, "right"))
            count = lo + int(batch.seq[pos + lo : pos + hi].searchsorted(next_seq))
        if until is not None:
            count = min(count, int(when.searchsorted(until, "right")))
        if budget is not None:
            count = min(count, budget)
        end = pos + count
        if end < batch.when.size:
            batch.pos = end
            heapq.heappush(
                queue, (float(batch.when[end]), int(batch.seq[end]), _Batch, batch)
            )
        self._now = float(when[count - 1])
        self._event_count += count
        seq = self._seq
        batch.fn(batch.items[pos:end], *batch.args)
        if self._seq != seq:
            raise SimulationError("a batch callback must not schedule events")
        return count

    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        if not self._queue:
            return False
        when, _seq, fn, args = heapq.heappop(self._queue)
        if fn is _Batch:
            self._fire_batch(args, None, 1)
            return True
        self._now = when
        self._event_count += 1
        fn(*args)
        return True

    def run(self, until: Optional[float] = None, *, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, time ``until``, or ``max_events`` fire.

        ``until`` is inclusive: events scheduled exactly at ``until`` do
        fire, and the clock is advanced to ``until`` on return even if
        the queue drained earlier (matching SimPy semantics).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                when, _seq, fn, args = pop(queue)
                if fn is _Batch:
                    budget = None if max_events is None else max_events - fired
                    fired += self._fire_batch(args, until, budget)
                    continue
                self._now = when
                self._event_count += 1
                fn(*args)
                fired += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if queue is empty)."""
        return self._queue[0][0] if self._queue else float("inf")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Simulator(now={self._now}, pending={len(self._queue)})"
