"""Transport semantics: delivery, loss, link failure, accounting."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.network.transport import LinkFailureModel, Message, Transport
from repro.sim.engine import Simulator


@pytest.fixture
def net():
    sim = Simulator()
    transport = Transport(sim, latency=1.0, loss_rate=0.0, rng=0)
    return sim, transport


class TestDelivery:
    def test_message_arrives_with_payload(self, net):
        sim, tr = net
        got = []
        tr.register(1, lambda m: got.append((m.src, m.payload, sim.now)))
        assert tr.send(0, 1, "hello") is True
        sim.run()
        assert len(got) == 1
        src, payload, when = got[0]
        assert (src, payload) == (0, "hello")
        assert 0.5 <= when <= 1.5  # jittered latency

    def test_message_is_a_positional_named_tuple(self, net):
        sim, tr = net
        got = []
        tr.register(1, got.append)
        tr.send(0, 1, "p", kind="k")
        sim.run()
        (msg,) = got
        assert tuple(msg) == (0, 1, "p", "k", 0.0)
        assert Message(0, 1, None).kind == "data"

    def test_zero_latency_delivers_same_time(self):
        sim = Simulator()
        tr = Transport(sim, latency=0.0, rng=0)
        got = []
        tr.register(1, lambda m: got.append(sim.now))
        tr.send(0, 1, "x")
        sim.run()
        assert got == [0.0]

    def test_self_send_rejected(self, net):
        _sim, tr = net
        with pytest.raises(ValidationError):
            tr.send(2, 2, "loop")

    def test_unregistered_destination_drops(self, net):
        sim, tr = net
        tr.send(0, 9, "void")
        sim.run()
        assert tr.dropped_unregistered == 1
        assert tr.delivered == 0

    def test_byte_accounting(self, net):
        _sim, tr = net
        tr.register(1, lambda m: None)
        tr.send(0, 1, "x", size=128)
        tr.send(0, 1, "y", size=64)
        assert tr.bytes_sent == 192


class TestLoss:
    def test_loss_rate_one_drops_everything(self):
        sim = Simulator()
        tr = Transport(sim, latency=1.0, loss_rate=1.0, rng=0)
        tr.register(1, lambda m: None)
        assert tr.send(0, 1, "x") is False
        sim.run()
        assert tr.delivered == 0
        assert tr.dropped_loss == 1

    def test_loss_rate_statistics(self):
        sim = Simulator()
        tr = Transport(sim, latency=0.0, loss_rate=0.3, rng=1)
        tr.register(1, lambda m: None)
        n = 5000
        for _ in range(n):
            tr.send(0, 1, "x")
        sim.run()
        assert tr.dropped_loss / n == pytest.approx(0.3, abs=0.03)
        assert tr.delivered + tr.dropped_loss == n

    def test_invalid_loss_rate(self):
        with pytest.raises(ValidationError):
            Transport(Simulator(), loss_rate=1.5)


class TestLinkFailures:
    def test_failed_link_drops_both_directions(self, net):
        sim, tr = net
        tr.register(0, lambda m: None)
        tr.register(1, lambda m: None)
        tr.fail_link(0, 1)
        assert tr.send(0, 1, "a") is False
        assert tr.send(1, 0, "b") is False
        assert tr.dropped_link == 2

    def test_other_links_unaffected(self, net):
        sim, tr = net
        got = []
        tr.register(2, lambda m: got.append(m))
        tr.fail_link(0, 1)
        tr.send(0, 2, "ok")
        sim.run()
        assert len(got) == 1

    def test_link_heals_after_duration(self, net):
        sim, tr = net
        got = []
        tr.register(1, lambda m: got.append(m))
        tr.fail_link(0, 1, duration=5.0)
        tr.send(0, 1, "early")  # dropped
        sim.run(until=6.0)
        tr.send(0, 1, "late")  # delivered
        sim.run()
        assert [m.payload for m in got] == ["late"]

    def test_partition_cuts_cross_group_pairs_only(self):
        model = LinkFailureModel()
        assert not model.is_down(0, 1)
        model.set_partition({0: 0, 1: 1, 2: 1})
        assert model.is_down(0, 1)
        assert not model.is_down(1, 2)
        model.clear_partition()
        assert not model.is_down(0, 1)

    def test_model_bookkeeping(self):
        model = LinkFailureModel()
        model.fail(2, 1)
        assert model.is_down(1, 2)
        assert model.down_count == 1
        model.heal(1, 2)
        assert not model.is_down(2, 1)
        assert model.down_count == 0


class TestSendMany:
    """``send_many`` is ``send`` per message in order, delivered as one batch."""

    SRC = [0, 1, 2, 3, 4, 5, 0, 2, 1, 3]
    DST = [1, 2, 3, 4, 1, 0, 4, 5, 2, 0]

    def _run(self, batched, latency=1.0, loss=0.0, down=(), partition=None, mid=None):
        sim = Simulator()
        tr = Transport(sim, latency=latency, loss_rate=loss, rng=3)
        got = []
        for node in range(5):  # node 5 never registers
            tr.register(node, lambda m: got.append((m.payload, sim.now)))
        for u, v in down:
            tr.links.fail(u, v)
        if partition is not None:
            tr.links.set_partition(partition)
        if mid is not None:
            sim.call_at(0.9, mid, tr)
        sizes = np.arange(1, len(self.SRC) + 1)
        if batched:

            def deliver(payload, idx):
                got.extend((payload[k], sim.now) for k in idx.tolist())

            payload = np.arange(len(self.SRC))
            nbytes = int(sizes.sum())  # one total: send counts bytes before its drops
            queued = tr.send_many(np.array(self.SRC), np.array(self.DST), payload, nbytes, deliver)
        else:
            queued = sum(
                tr.send(u, v, k, size=int(size))
                for k, (u, v, size) in enumerate(zip(self.SRC, self.DST, sizes))
            )
        sim.run()
        counters = (
            tr.sent, tr.delivered, tr.bytes_sent,
            tr.dropped_loss, tr.dropped_link, tr.dropped_unregistered,
        )
        return queued, [k for k, _ in got], counters, tr._rng.bit_generator.state

    @pytest.mark.parametrize(
        "scenario",
        [
            {},
            {"latency": 0.0},
            {"loss": 0.3},
            {"down": [(0, 1), (4, 2)]},
            {"partition": {0: 0, 1: 0, 2: 1}, "loss": 0.1},
            {"mid": lambda tr: tr.links.fail(0, 4)},
            {"mid": lambda tr: tr._handlers.pop(2)},
            {"loss": 1.0},  # every message's bytes count, though all drop
        ],
    )
    def test_matches_send_per_message(self, scenario):
        assert self._run(True, **scenario) == self._run(False, **scenario)

    def test_arrivals_come_in_time_order_with_their_indices(self):
        queued, order, counters, _ = self._run(True)
        assert queued == len(self.SRC)
        assert sorted(order) == [k for k in range(len(self.SRC)) if self.DST[k] != 5]
        assert counters[5] == 1  # the message to unregistered node 5

    def test_self_send_rejected(self, net):
        _sim, tr = net
        with pytest.raises(ValidationError):
            tr.send_many(
                np.array([0, 1]), np.array([1, 1]), None, 2, lambda p, idx: None
            )
