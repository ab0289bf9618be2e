"""ReliableTransport: acks, retries, give-up suspicion, dedup."""

import pytest

from repro.network import reliability
from repro.network.reliability import (
    ACK_KIND,
    RELIABLE_KIND,
    ReliableEnvelope,
    ReliableTransport,
)
from repro.network.transport import Message, Transport
from repro.sim.engine import Simulator


def build(loss=0.0, latency=0.5, seed=0):
    sim = Simulator()
    transport = Transport(sim, latency=latency, loss_rate=loss, rng=seed)
    delivered = []
    suspected = []
    reliable = ReliableTransport(
        transport,
        on_deliver=lambda msg, kind, payload: delivered.append((msg.src, msg.dst, kind, payload)),
        on_give_up=lambda src, dst, kind: suspected.append((src, dst, kind)),
    )
    # Route everything (envelopes at dst, acks back at src) into the wrapper.
    for node in range(16):
        transport.register(node, reliable.handle)
    return sim, transport, reliable, delivered, suspected


class TestValidation:
    def test_default_timeout_covers_round_trip(self):
        sim = Simulator()
        transport = Transport(sim, latency=1.0)
        r = ReliableTransport(transport)
        assert r.ack_timeout > 3.0 * transport.latency


class TestHappyPath:
    def test_single_send_delivers_and_acks(self):
        sim, _tr, reliable, delivered, suspected = build()
        reliable.send(0, 1, {"hello": 1}, kind="probe")
        sim.run()
        assert delivered == [(0, 1, "probe", {"hello": 1})]
        assert reliable.acked == 1
        assert reliable.pending_count == 0
        assert reliable.retries == 0
        assert suspected == []

    def test_many_sends_all_acked(self):
        sim, _tr, reliable, delivered, _ = build()
        for i in range(10):
            reliable.send(i % 4, (i + 1) % 4, i, kind="data")
        sim.run()
        assert reliable.acked == 10
        assert len(delivered) == 10
        assert reliable.pending_count == 0

    def test_non_reliable_traffic_not_consumed(self):
        sim, transport, reliable, _, _ = build()
        msg = Message(src=0, dst=1, payload=None, kind="gossip")
        assert reliable.handle(msg) is False


class TestRetry:
    def test_total_loss_exhausts_retries_and_suspects(self):
        sim, _tr, reliable, delivered, suspected = build(loss=1.0)
        reliable.send(0, 1, None, kind="probe")
        sim.run()
        assert delivered == []
        assert reliable.retries == 2  # attempts beyond the first
        assert reliable.gave_up == 1
        assert suspected == [(0, 1, "probe")]
        assert reliable.pending_count == 0

    def test_zero_retries_gives_up_after_one_attempt(self, monkeypatch):
        monkeypatch.setattr(reliability, "_MAX_RETRIES", 0)
        sim, _tr, reliable, _, suspected = build(loss=1.0)
        reliable.send(0, 1, None, kind="probe")
        sim.run()
        assert reliable.retries == 0
        assert suspected == [(0, 1, "probe")]

    def test_lossy_link_eventually_delivers(self, monkeypatch):
        monkeypatch.setattr(reliability, "_MAX_RETRIES", 5)
        sim, _tr, reliable, delivered, _ = build(loss=0.5, seed=7)
        for i in range(12):
            reliable.send(0, 1, i, kind="data")
        sim.run()
        # With 6 attempts at 50% loss virtually everything lands.
        assert len(delivered) >= 10
        assert reliable.retries > 0

    def test_backoff_stretches_each_wait(self):
        sim, _tr, reliable, _, _ = build(loss=1.0)
        reliable.send(0, 1, None)
        t0 = sim.now
        sim.run()
        # Waits: T + 2T + 4T with T = ack_timeout.
        assert sim.now - t0 == pytest.approx(7.0 * reliable.ack_timeout)


class TestDedup:
    def _envelope_msg(self, msg_id, payload="p"):
        return Message(
            src=0,
            dst=1,
            payload=ReliableEnvelope(msg_id=msg_id, kind="data", payload=payload),
            kind=RELIABLE_KIND,
        )

    def test_duplicate_envelope_acked_but_delivered_once(self):
        sim, _tr, reliable, delivered, _ = build()
        msg = self._envelope_msg(1000)
        assert reliable.handle(msg) is True
        assert reliable.handle(msg) is True
        assert len(delivered) == 1
        assert reliable.acks_sent == 2  # duplicate still re-acked

    def test_late_retransmit_of_older_id_still_delivers_once_each(self):
        sim, _tr, reliable, delivered, _ = build()
        # Newer id arrives first; the older retransmit must not be
        # mistaken for a duplicate (regression: max-id dedup).
        reliable.handle(self._envelope_msg(2001, payload="new"))
        reliable.handle(self._envelope_msg(2000, payload="old"))
        assert [p for (_, _, _, p) in delivered] == ["new", "old"]
        assert reliable.acks_sent == 2

    def test_stray_ack_is_consumed_silently(self):
        sim, _tr, reliable, _, _ = build()
        assert reliable.handle(Message(src=1, dst=0, payload=999, kind=ACK_KIND))
        assert reliable.acked == 0


class TestTimerOwnership:
    def test_stale_timer_does_not_double_retry(self, monkeypatch):
        """An old attempt's timer firing after a resend must be a no-op."""
        monkeypatch.setattr(reliability, "_MAX_RETRIES", 3)
        sim, _tr, reliable, _, suspected = build(loss=1.0)
        reliable.send(0, 1, None)
        sim.run()
        # Exactly max_retries resends, one give-up — no timer raced.
        assert reliable.retries == 3
        assert reliable.gave_up == 1
        assert len(suspected) == 1
