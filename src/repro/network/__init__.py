"""Peer-to-peer network substrate.

* :mod:`repro.network.topology` — from-scratch overlay graph generators
  (random, Barabási–Albert power-law, Watts–Strogatz) plus the
  Gnutella-like default used in the paper's evaluation.
* :mod:`repro.network.overlay` — live overlay state: membership,
  neighbor tables, and partner sampling for gossip.
* :mod:`repro.network.transport` — message transport on the DES with
  latency, loss, link failures and partitions.
* :mod:`repro.network.faultplan` — seeded fault schedules (crash
  bursts, link flaps, partitions, loss ramps): how experiments and
  examples inject faults on a run's clock.
* :mod:`repro.network.reliability` — acknowledged probes with retries
  for the partner strategies' failure detection.
* :mod:`repro.network.dht` — a Chord-like DHT ring used by the
  structured baselines (EigenTrust/PowerTrust) and the §7 extension.
"""

from repro.network.dht import ChordRing
from repro.network.overlay import Overlay
from repro.network.topology import Topology, gnutella_like, powerlaw_graph, random_graph, small_world_graph
from repro.network.transport import LinkFailureModel, Message, Transport

__all__ = [
    "Topology",
    "random_graph",
    "powerlaw_graph",
    "small_world_graph",
    "gnutella_like",
    "Overlay",
    "Transport",
    "Message",
    "LinkFailureModel",
    "ChordRing",
]
