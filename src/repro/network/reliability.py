"""Transport-level reliability: per-send acks, bounded retry, suspicion.

The gossip payload itself is deliberately fire-and-forget — push-sum
tolerates proportional (x, w) loss, and *retrying* a delivered-but-
unacked half would duplicate mass and break the conservation invariant
the sanitizer arms.  What does need reliability is the *control plane*:
the Brahms membership protocol (:mod:`repro.gossip.partnering`) probes
its sampled peers — idempotent messages whose occasional duplication is
harmless but whose silent loss leaves failures undetected.

:class:`ReliableTransport` wraps a :class:`~repro.network.transport.Transport`
with exactly that contract:

* every reliable send is wrapped in an envelope carrying a message id;
  the receiver acks the id back to the sender;
* a missing ack after ``ack_timeout`` triggers a resend, with the
  timeout stretched by ``_BACKOFF`` per attempt, up to ``_MAX_RETRIES``
  resends;
* after the last attempt times out the wrapper *gives up* and reports
  the destination to the ``on_give_up`` callback — the suspicion signal
  the membership layer turns into view eviction.

The wrapper does not own transport registration (the DES engines
register one handler per node); instead the owning protocol forwards
incoming messages to :meth:`handle`, which consumes acks and reliable
envelopes and returns ``False`` for everything else.  Counters
(``retries``, ``gave_up``, ``acks_sent``) quantify the retry overhead
the resilience experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set

from repro.network.transport import Message, Transport

__all__ = ["ReliableEnvelope", "ReliableTransport"]

#: transport message kind of a reliable envelope
RELIABLE_KIND = "reliable"
#: transport message kind of an acknowledgement
ACK_KIND = "ack"

#: the ack timeout in round trips (a round trip is 2x max latency = 3x
#: mean); one round trip or less would make every send retry spuriously
_ACK_TIMEOUT_ROUND_TRIPS = 2.0

#: resend budget per message (0 = a single attempt, then give up)
_MAX_RETRIES = 2

#: multiplicative timeout stretch per attempt (attempt k waits
#: ``ack_timeout * _BACKOFF**k``)
_BACKOFF = 2.0


@dataclass(frozen=True)
class ReliableEnvelope:
    """Wire wrapper around a reliable payload."""

    #: wrapper-unique id acked back by the receiver
    msg_id: int
    #: the protocol's own message kind (e.g. ``"probe"``)
    kind: str
    #: the protocol payload, delivered to ``on_deliver`` verbatim
    payload: Any


@dataclass
class _Pending:
    """One un-acked reliable send."""

    src: int
    dst: int
    kind: str
    payload: Any
    size: int
    attempt: int = 0


class ReliableTransport:
    """Ack/retry wrapper over an unreliable :class:`Transport`.

    Parameters
    ----------
    transport:
        The underlying (lossy, failing) transport.  The ack timeout is
        ``_ACK_TIMEOUT_ROUND_TRIPS`` of its round trips.
    on_deliver:
        Callback ``(msg, kind, payload)`` invoked for every reliable
        payload that arrives (``msg`` is the transport message, so
        handlers see src/dst).  Duplicate deliveries are possible when
        an ack is lost — payload semantics must be idempotent.
    on_give_up:
        Callback ``(src, dst, kind)`` invoked when a message exhausts
        its retries — the failure-suspicion signal.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        on_deliver: Optional[Callable[[Message, str, Any], None]] = None,
        on_give_up: Optional[Callable[[int, int, str], None]] = None,
    ) -> None:
        self.transport = transport
        self.sim = transport.sim
        #: simulated time to wait for an ack before the first resend
        self.ack_timeout = max(_ACK_TIMEOUT_ROUND_TRIPS * 3.0 * transport.latency, 1e-9)
        self.on_deliver = on_deliver
        self.on_give_up = on_give_up
        self._next_id = 0
        self._pending: Dict[int, _Pending] = {}
        # -- retry-overhead accounting ----------------------------------
        self.sent = 0
        self.retries = 0
        self.acked = 0
        self.gave_up = 0
        self.acks_sent = 0
        self._delivered_ids: Set[int] = set()

    # -- sending -----------------------------------------------------------

    def send(
        self, src: int, dst: int, payload: Any, *, kind: str = "data", size: int = 0
    ) -> int:
        """Send ``payload`` reliably; returns the tracking message id.

        The message is retried until acked or the retry budget runs
        out; the caller learns about the final failure only through
        ``on_give_up`` (fire-and-forget with supervision, the shape
        membership maintenance needs).
        """
        msg_id = self._next_id
        self._next_id += 1
        self._pending[msg_id] = _Pending(
            src=src, dst=dst, kind=kind, payload=payload, size=size
        )
        self.sent += 1
        self._attempt(msg_id)
        return msg_id

    def _attempt(self, msg_id: int) -> None:
        entry = self._pending.get(msg_id)
        if entry is None:
            return
        envelope = ReliableEnvelope(msg_id=msg_id, kind=entry.kind, payload=entry.payload)
        self.transport.send(
            entry.src, entry.dst, envelope, kind=RELIABLE_KIND, size=entry.size
        )
        delay = self.ack_timeout * (_BACKOFF ** entry.attempt)
        self.sim.call_in(delay, self._check_ack, msg_id, entry.attempt)

    def _check_ack(self, msg_id: int, attempt: int) -> None:
        entry = self._pending.get(msg_id)
        if entry is None or entry.attempt != attempt:
            return  # acked meanwhile, or a newer attempt owns the timer
        if entry.attempt >= _MAX_RETRIES:
            del self._pending[msg_id]
            self.gave_up += 1
            if self.on_give_up is not None:
                self.on_give_up(entry.src, entry.dst, entry.kind)
            return
        entry.attempt += 1
        self.retries += 1
        self._attempt(msg_id)

    # -- receiving ---------------------------------------------------------

    def handle(self, msg: Message) -> bool:
        """Consume a transport message if it belongs to this wrapper.

        Returns ``True`` for acks and reliable envelopes (handled here),
        ``False`` for anything else (the caller's own traffic).  The
        owning protocol calls this first in its transport handler.
        """
        if msg.kind == ACK_KIND:
            entry = self._pending.pop(int(msg.payload), None)
            if entry is not None:
                self.acked += 1
            return True
        if msg.kind != RELIABLE_KIND:
            return False
        envelope = msg.payload
        # Ack unconditionally — even a duplicate means the sender's ack
        # got lost and it is still waiting for one.
        self.transport.send(msg.dst, msg.src, envelope.msg_id, kind=ACK_KIND, size=8)
        self.acks_sent += 1
        if envelope.msg_id in self._delivered_ids:
            return True  # retransmit of an already-delivered payload
        self._delivered_ids.add(envelope.msg_id)
        if self.on_deliver is not None:
            self.on_deliver(msg, envelope.kind, envelope.payload)
        return True

    # -- accounting --------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Reliable sends still awaiting an ack."""
        return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ReliableTransport(sent={self.sent}, retries={self.retries}, "
            f"acked={self.acked}, gave_up={self.gave_up})"
        )
