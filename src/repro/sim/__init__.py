"""Discrete-event simulation substrate.

A small, dependency-free DES kernel:
:class:`~repro.sim.engine.Simulator` — a binary-heap queue of timed
calls with a deterministic tie-break (same-time calls fire in schedule
order), plus batches of timed items under one callback.

The message-level gossip engine, fault plans and transport layer all
run on this kernel; the vectorized engines bypass it entirely.
"""

from repro.sim.engine import Simulator

__all__ = ["Simulator"]
