"""Message transport over the discrete-event simulator.

Models the properties the paper's robustness claims depend on:

* per-message latency drawn from a configurable distribution,
* independent message loss with probability ``loss_rate``,
* explicit *link failures*: a failed (u, v) link drops every message
  between u and v until it heals (§7 claims tolerance to link failures —
  the gossip protocol needs no error recovery because push-sum mass that
  is lost only perturbs, never corrupts, the converged ratio when the
  self-half is kept locally),
* *network partitions*: a group assignment under which every
  cross-group message drops until the partition heals.

Fault model, stated explicitly:

* **Random loss is evaluated once, at send time.**  A message that
  survives the coin flip is delivered even if ``loss_rate`` rises while
  it is in flight — loss models the first-hop/queueing drop, not a
  per-link-segment process.
* **Link and partition state is checked at send time AND at delivery
  time.**  A message in flight when its link fails (or a partition cuts
  the pair) is dropped at its arrival instant and counted under
  ``dropped_link`` — links that go down take their in-flight traffic
  with them.
* A message to a destination that unregistered mid-flight is dropped
  at delivery (``dropped_unregistered``).

:meth:`Transport.send` queues one message; :meth:`Transport.send_many`
queues a whole round of messages under the same rules, applied per
message in send order (one helper each for the send-time and the
delivery-time checks serves both), so a round sent either way draws the
same coins and latencies and fires the same counters.

Delivery is a callback: the receiving protocol registers a handler and
the transport invokes it at the message's arrival time.  A batch sent
with :meth:`Transport.send_many` names its own delivery callback, which
receives the arriving messages of a stretch of simulated time at once;
the registry is still checked for each of them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.sim.engine import Simulator
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_probability

__all__ = ["Message", "LinkFailureModel", "Transport"]


class Message(NamedTuple):
    """An application message in flight (an immutable named tuple)."""

    src: int
    dst: int
    payload: Any
    kind: str = "data"
    sent_at: float = 0.0


class LinkFailureModel:
    """Tracks failed undirected links and network partitions.

    ``fail(u, v)`` marks a single link down.  ``set_partition(groups)``
    installs a group assignment under which every *cross-group* pair is
    down (an O(1) representation of a network split — no quadratic set
    of pairwise failures).  Both compose: a link is down if explicitly
    failed or cut by the active partition.
    """

    def __init__(self) -> None:
        self._down: Set[Tuple[int, int]] = set()
        self._groups: Optional[Dict[int, int]] = None

    @staticmethod
    def _key(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u <= v else (v, u)

    def fail(self, u: int, v: int) -> None:
        """Mark link ``{u, v}`` as failed."""
        self._down.add(self._key(u, v))

    def heal(self, u: int, v: int) -> None:
        """Restore link ``{u, v}`` (no-op if it was up)."""
        self._down.discard(self._key(u, v))

    def set_partition(self, groups: Mapping[int, int]) -> None:
        """Partition the network: pairs in different groups are down.

        ``groups`` maps node id -> group id; nodes absent from the
        mapping are treated as one implicit extra group (they can reach
        each other but no explicitly grouped node of another group).
        Replaces any previous partition.
        """
        self._groups = dict(groups)

    def clear_partition(self) -> None:
        """Heal the active partition (explicit link failures persist)."""
        self._groups = None

    @property
    def any_down(self) -> bool:
        """Whether any link is failed or cut (``False``: every link is up)."""
        return bool(self._down) or self._groups is not None

    @property
    def partitioned(self) -> bool:
        """Whether a partition is currently active."""
        return self._groups is not None

    def is_down(self, u: int, v: int) -> bool:
        """Whether link ``{u, v}`` is currently failed or cut."""
        if not self._down and self._groups is None:
            return False
        if self._key(u, v) in self._down:
            return True
        if self._groups is not None:
            return self._groups.get(u, -1) != self._groups.get(v, -1)
        return False

    @property
    def down_count(self) -> int:
        """Number of explicitly failed links (partition cuts not counted)."""
        return len(self._down)


class Transport:
    """Unreliable message transport bound to a :class:`Simulator`.

    Parameters
    ----------
    sim:
        The event kernel that drives delivery timing.
    latency:
        Mean one-way latency; actual latency is uniform in
        ``[0.5 * latency, 1.5 * latency]`` (a simple jitter model).
    loss_rate:
        Independent per-message drop probability.
    rng:
        Seed/generator for latency jitter and loss coin flips.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float = 1.0,
        loss_rate: float = 0.0,
        rng: SeedLike = None,
    ) -> None:
        check_non_negative("latency", latency)
        check_probability("loss_rate", loss_rate)
        self.sim = sim
        self.latency = float(latency)
        self.loss_rate = float(loss_rate)
        self.links = LinkFailureModel()
        self._rng = as_generator(rng)
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        # Counters for overhead accounting (the paper's "light-weight
        # communication" claim is assessed with these).
        self.sent = 0
        self.delivered = 0
        self.dropped_loss = 0
        self.dropped_link = 0
        self.dropped_unregistered = 0
        self.bytes_sent = 0

    def register(self, node: int, handler: Callable[[Message], None]) -> None:
        """Install the delivery handler for ``node`` (replaces any prior)."""
        self._handlers[node] = handler

    def set_loss_rate(self, loss_rate: float) -> None:
        """Change the independent per-message drop probability.

        The knob fault plans ramp mid-run (see
        :mod:`repro.network.faultplan`); applies to messages sent from
        now on — in-flight messages already won their coin flip.
        """
        check_probability("loss_rate", loss_rate)
        self.loss_rate = float(loss_rate)

    def _admit(self, src: int, dst: int, size: int) -> Optional[float]:
        """The send-time fault model for one message: its delay, or ``None``.

        Counts the send, then checks the link, flips the loss coin and
        draws the latency, in that order (the fault model of the module
        docstring; both send paths go through here).
        """
        self.sent += 1
        self.bytes_sent += size
        if self.links.is_down(src, dst):
            self.dropped_link += 1
            return None
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.dropped_loss += 1
            return None
        return self.latency * (0.5 + self._rng.random()) if self.latency > 0 else 0.0

    def _arrives(self, src: int, dst: int) -> bool:
        """The delivery-time checks for one message; ``False`` if dropped."""
        if self.links.is_down(src, dst):
            self.dropped_link += 1
            return False
        if dst not in self._handlers:
            self.dropped_unregistered += 1
            return False
        self.delivered += 1
        return True

    def send(self, src: int, dst: int, payload: Any, *, kind: str = "data", size: int = 0) -> bool:
        """Queue a message; returns False if dropped at send time.

        Random loss is evaluated once, at send time (see the module
        docstring for the full fault model).  Link/partition state is
        checked here *and again at delivery*: a message in flight when
        its link fails is dropped on arrival and counted under
        ``dropped_link``.  A surviving message lands after jittered
        latency unless the destination unregistered meanwhile (peer
        departed during flight).
        """
        if src == dst:
            raise ValidationError("transport does not loop back; handle self-delivery locally")
        delay = self._admit(src, dst, size)
        if delay is None:
            return False
        self.sim.call_in(delay, self._deliver, Message(src, dst, payload, kind, self.sim.now))
        return True

    def send_many(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        payload: Any,
        nbytes: int,
        deliver: Callable[[Any, np.ndarray], None],
    ) -> int:
        """Queue messages ``src[k] -> dst[k]`` of ``nbytes`` in total, in order.

        Message ``k`` carries row ``k`` of ``payload``.  Exactly
        :meth:`send` per message, in order — the same counters, coin
        flips and latency draws — but the survivors are scheduled as
        one simulator batch, and on arrival ``deliver(payload, idx)``
        receives the indices ``k`` of the messages that passed the
        delivery checks, in arrival order (``deliver`` must not
        schedule; see :meth:`~repro.sim.engine.Simulator.call_batch_in`).
        The registered handlers are not called.  ``bytes_sent`` grows by
        ``nbytes`` at once: :meth:`send` counts a message's bytes before
        its drop checks, so the sum of the per-message sizes is exact on
        the lossy path too.  Vectorized when the transport is lossless
        and every link is up.  Returns the number of messages queued.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if (src == dst).any():
            raise ValidationError("transport does not loop back; handle self-delivery locally")
        k = src.size
        if k == 0:
            return 0
        self.bytes_sent += int(nbytes)
        queued: Optional[np.ndarray] = None
        if self.loss_rate > 0.0 or self.links.any_down:
            kept: List[int] = []
            waits: List[float] = []
            admit = self._admit
            for i, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
                delay = admit(u, v, 0)  # the bytes are counted above
                if delay is not None:
                    kept.append(i)
                    waits.append(delay)
            queued = np.asarray(kept, dtype=np.int64)
            delays = np.asarray(waits, dtype=np.float64)
        else:
            self.sent += k
            if self.latency > 0:
                # latency * (0.5 + u), in place
                delays = self._rng.random(k)
                delays += 0.5
                delays *= self.latency
            else:
                delays = np.zeros(k)
        self.sim.call_batch_in(delays, self._deliver_many, queued, src, dst, payload, deliver)
        return int(delays.size)

    def _deliver(self, msg: Message) -> None:
        # A link that failed (or a partition that formed) while this
        # message was in flight takes it down too.
        if self._arrives(msg.src, msg.dst):
            self._handlers[msg.dst](msg)

    def _deliver_many(
        self,
        items: np.ndarray,
        queued: Optional[np.ndarray],
        src: np.ndarray,
        dst: np.ndarray,
        payload: Any,
        deliver: Callable[[Any, np.ndarray], None],
    ) -> None:
        """Arrival of batch ``items``: :meth:`_deliver`'s checks, then ``deliver``."""
        idx = items if queued is None else queued[items]
        if self.links.any_down:
            arrives = self._arrives
            ok = [arrives(u, v) for u, v in zip(src[idx].tolist(), dst[idx].tolist())]
        else:
            registered = self._handlers.__contains__
            to = dst[idx].tolist()
            if all(map(registered, to)):
                self.delivered += len(to)
                deliver(payload, idx)
                return
            ok = list(map(registered, to))
            arrived = sum(ok)
            self.delivered += arrived
            self.dropped_unregistered += len(ok) - arrived
        deliver(payload, idx[np.asarray(ok, dtype=bool)])

    @property
    def drop_count(self) -> int:
        """Total messages dropped for any reason."""
        return self.dropped_loss + self.dropped_link + self.dropped_unregistered

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Transport(sent={self.sent}, delivered={self.delivered}, "
            f"dropped={self.drop_count})"
        )
