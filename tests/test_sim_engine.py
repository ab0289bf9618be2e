"""Discrete-event kernel: ordering, time semantics, scheduling."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout


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

    def test_calls_events_and_processes_share_one_fifo(self):
        sim = Simulator()
        order = []

        def proc():
            order.append("proc")
            yield 0.0
            order.append("proc-wake")

        sim.call_at(0.0, order.append, "call")
        sim.timeout(0.0).add_callback(lambda _ev: order.append("timeout"))
        sim.process(proc())
        sim.call_in(0.0, order.append, "call2")
        sim.run()
        assert order == ["call", "timeout", "proc", "call2", "proc-wake"]
        assert sim.events_processed == 5

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

    def test_run_with_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.call_in(float(i), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

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


class TestEvents:
    def test_event_triggers_callbacks_once(self):
        sim = Simulator()
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed("v")
        assert got == ["v"]
        with pytest.raises(SimulationError):
            ev.succeed("again")

    def test_callback_on_already_triggered_event_runs_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(7)
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == [7]

    def test_timeout_carries_value(self):
        sim = Simulator()
        ev = sim.timeout(2.0, value="payload")
        sim.run()
        assert ev.triggered
        assert ev.value == "payload"

    def test_timeout_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Timeout(sim, -0.5)
