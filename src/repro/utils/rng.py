"""Deterministic random-number stream management.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator`.  Reproducibility rules:

* A top-level experiment owns a single root seed.
* Each subsystem (topology, feedback, gossip partner choice, workload,
  threat model, ...) gets its *own named child stream*, derived with
  :class:`numpy.random.SeedSequence` spawning.  Adding a new consumer
  therefore never perturbs the draws seen by existing consumers.
* The paper reports averages over >= 10 runs with different seeds; the
  experiment harness loops root seeds ``0..repeats-1``.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

__all__ = ["SeedLike", "as_generator", "RngStreams"]

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an ``int`` seed, an existing generator (returned as-is), a
    :class:`~numpy.random.SeedSequence`, or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


class RngStreams:
    """Lazily-spawned named RNG streams rooted at one seed.

    Example
    -------
    >>> streams = RngStreams(seed=42)
    >>> topo_rng = streams.get("topology")
    >>> feed_rng = streams.get("feedback")

    Requesting the same name twice returns the same generator instance.
    Streams for distinct names are statistically independent.
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, np.random.Generator):
            entropy = seed.integers(0, 2**63 - 1, size=4).tolist()
            self._root = np.random.SeedSequence(entropy)
            self._seed_repr: Optional[int] = None
        elif isinstance(seed, np.random.SeedSequence):
            self._root = seed
            self._seed_repr = None
        else:
            self._root = np.random.SeedSequence(seed)
            self._seed_repr = seed
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> Optional[int]:
        """The integer root seed, if one was supplied."""
        return self._seed_repr

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, spawning it on first use.

        Spawn order is the order of first requests, so components must
        request their streams deterministically (they do: stream names
        are fixed per subsystem constructor).
        """
        if name not in self._streams:
            (child,) = self._root.spawn(1)
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(seed={self._seed_repr!r}, spawned={sorted(self._streams)})"
