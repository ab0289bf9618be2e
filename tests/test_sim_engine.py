"""Discrete-event kernel: ordering, time semantics, scheduling."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_call_in_fires_at_right_time(self):
        sim = Simulator()
        times = []
        sim.call_in(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_call_at_absolute_time(self):
        sim = Simulator()
        out = []
        sim.call_at(3.0, out.append, "x")
        sim.run()
        assert out == ["x"]
        assert sim.now == 3.0

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.call_at(1.0, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_in(-1.0, lambda: None)

    def test_call_at_and_call_in_return_none(self):
        sim = Simulator()
        assert sim.call_at(1.0, lambda: None) is None
        assert sim.call_in(1.0, lambda: None) is None

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.call_in(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestRun:
    def test_run_until_is_inclusive_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.0, fired.append, "at2")
        sim.call_at(5.0, fired.append, "at5")
        sim.run(until=2.0)
        assert fired == ["at2"]
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert fired == ["at2", "at5"]
        assert sim.now == 10.0  # clock advances to `until` even when idle

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.call_in(4.0, lambda: None)
        assert sim.peek() == 4.0

    def test_not_reentrant(self):
        sim = Simulator()
        err = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                err.append(exc)

        sim.call_in(1.0, reenter)
        sim.run()
        assert len(err) == 1


def _schedule(sim, log, batched, delays, calls=()):
    """Ordinary calls ``(time, tag)`` around one batch of ``delays``.

    The first half of ``calls`` is scheduled before the batch and the
    rest after it, so ties at equal times go by scheduling order.  Each
    batch item logs ``("b", index)``; ``batched=False`` schedules the
    items as one ``call_in`` each (the oracle).
    """
    half = len(calls) // 2
    for when, tag in calls[:half]:
        sim.call_at(when, log.append, tag)
    if batched:
        sim.call_batch_in(
            np.array(delays), lambda items: log.extend(("b", i) for i in items.tolist())
        )
    else:
        for i, delay in enumerate(delays):
            sim.call_in(delay, log.append, ("b", i))
    for when, tag in calls[half:]:
        sim.call_at(when, log.append, tag)


class TestBatch:
    DELAYS = [1.0, 0.2, 1.0, 3.0, 1.0, 0.5, 2.0]
    CALLS = [(0.5, "e0"), (1.0, "e1"), (2.0, "e2"), (1.0, "e3"), (0.2, "e4"), (2.5, "e5")]

    def _both(self, run, delays=None, calls=None):
        out = []
        for batched in (True, False):
            sim, log = Simulator(), []
            _schedule(sim, log, batched, delays or self.DELAYS, calls or self.CALLS)
            run(sim)
            out.append((log, sim.now, sim.events_processed, sim.peek()))
        return out

    def test_interleaves_with_calls_like_one_call_per_item(self):
        batched, oracle = self._both(lambda sim: sim.run())
        assert batched == oracle
        log = batched[0]
        # equal times go by reserved sequence number: e1 (scheduled
        # before the batch) fires before items 0, 2, 4, and e3 after them
        assert log.index("e1") < log.index(("b", 0)) < log.index(("b", 2))
        assert log.index(("b", 4)) < log.index("e3")
        assert batched[2] == len(self.DELAYS) + len(self.CALLS)

    def test_unequal_times_split_the_batch(self):
        sim, calls = Simulator(), []
        sim.call_at(0.7, calls.append, "e")
        sim.call_batch_in(
            np.array([0.5, 1.0, 0.6, 0.9]), lambda items: calls.append(items.tolist())
        )
        sim.run()
        assert calls == [[0, 2], "e", [3, 1]]
        assert sim.events_processed == 5
        assert sim.now == 1.0

    def test_until_splits_a_batch(self):
        for until in (0.2, 0.9, 1.0, 2.2):
            batched, oracle = self._both(lambda sim: sim.run(until=until))
            assert batched == oracle
            assert batched[1] == until
        batched, oracle = self._both(lambda sim: (sim.run(until=1.0), sim.run()))
        assert batched == oracle

    def test_step_and_peek(self):
        def stepped(sim):
            peeks = []
            while sim.peek() < float("inf"):
                sim.run(until=sim.peek())
                peeks.append((sim.now, sim.events_processed, sim.peek()))
            sim.peeks = peeks

        logs = []
        for batched in (True, False):
            sim, log = Simulator(), []
            _schedule(sim, log, batched, self.DELAYS, self.CALLS)
            assert sim.peek() == 0.2
            stepped(sim)
            logs.append((log, sim.peeks))
        assert logs[0] == logs[1]
        assert len(logs[0][1]) == len({*self.DELAYS, *(t for t, _ in self.CALLS)})

    def test_items_come_in_firing_order(self):
        sim, got = Simulator(), []
        sim.call_in(1.0, lambda: None)
        sim.run()
        sim.call_batch_in(
            np.array([3.0, 1.0, 2.0, 1.0]),
            lambda items, tag: got.append((tag, items.tolist())),
            "x",
        )
        sim.run()
        assert got == [("x", [1, 3, 2, 0])]
        assert sim.now == 4.0

    def test_callback_must_not_schedule(self):
        sim = Simulator()
        sim.call_batch_in(np.array([1.0]), lambda items: sim.call_in(1.0, lambda: None))
        with pytest.raises(SimulationError, match="must not schedule"):
            sim.run()

    def test_delays_are_validated(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_batch_in(np.array([1.0, -0.5]), lambda items: None)
        sim.call_batch_in(np.array([]), lambda items: None)
        assert sim.peek() == float("inf")
        sim.run()
        assert sim.events_processed == 0
