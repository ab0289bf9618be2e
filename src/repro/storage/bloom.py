"""A classic Bloom filter, from scratch on a NumPy bit array.

Hash family: double hashing over two independent 64-bit digests of the
item (Kirsch-Mitzenmacher), which provably preserves the asymptotic
false-positive rate of ``k`` independent hashes while costing two
hashes per operation.  The digests do not depend on the filter, so one
:func:`digests` call serves a probe of many filters
(:meth:`BloomFilter.contains_digests`).
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable, Iterable, Iterator, Tuple

import numpy as np

from repro.errors import BloomCapacityError, ValidationError

__all__ = ["optimal_parameters", "digests", "BloomFilter"]

#: the double-hashing sums wrap at 64 bits
_MASK64 = (1 << 64) - 1


def optimal_parameters(capacity: int, error_rate: float) -> Tuple[int, int]:
    """Optimal ``(bits m, hashes k)`` for ``capacity`` items at ``error_rate``.

    Standard formulas: ``m = -n ln p / (ln 2)^2``, ``k = (m/n) ln 2``.
    """
    if capacity < 1:
        raise ValidationError(f"capacity must be >= 1, got {capacity}")
    if not 0.0 < error_rate < 1.0:
        raise ValidationError(f"error_rate must be in (0, 1), got {error_rate}")
    m = int(math.ceil(-capacity * math.log(error_rate) / (math.log(2) ** 2)))
    k = max(1, int(round((m / capacity) * math.log(2))))
    return m, k


def digests(item: Hashable) -> Tuple[int, int]:
    """Two independent 64-bit digests of ``item`` (stable across runs)."""
    raw = repr(item).encode()
    d = hashlib.sha256(raw).digest()
    h1 = int.from_bytes(d[:8], "big")
    h2 = int.from_bytes(d[8:16], "big") | 1  # odd, so strides cover the table
    return h1, h2


class BloomFilter:
    """A classic Bloom filter sized for ``capacity`` items at ``error_rate``.

    Supports membership testing with no false negatives and a bounded
    false-positive rate.
    """

    def __init__(self, capacity: int, error_rate: float = 0.01):
        self.capacity = int(capacity)
        self.error_rate = float(error_rate)
        self.m, self.k = optimal_parameters(self.capacity, self.error_rate)
        self._bits = np.zeros(self.m, dtype=bool)
        self.count = 0

    def _positions(self, h1: int, h2: int) -> Iterator[int]:
        """The ``k`` bit positions of the item whose digests are ``(h1, h2)``."""
        m = self.m
        return (((h1 + i * h2) & _MASK64) % m for i in range(self.k))

    def add(self, item: Hashable) -> None:
        """Insert an item.  Raises :class:`BloomCapacityError` past capacity."""
        if self.count >= self.capacity:
            raise BloomCapacityError(
                f"bloom filter sized for {self.capacity} items is full"
            )
        self._bits[list(self._positions(*digests(item)))] = True
        self.count += 1

    def update(self, items: Iterable[Hashable]) -> None:
        """Insert many items."""
        for item in items:
            self.add(item)

    def __contains__(self, item: Hashable) -> bool:
        return self.contains_digests(*digests(item))

    def contains_digests(self, h1: int, h2: int) -> bool:
        """Whether the item whose :func:`digests` are ``(h1, h2)`` may be in.

        Stops at the first clear bit.
        """
        bits = self._bits
        return all(bits[i] for i in self._positions(h1, h2))

    # -- accounting --------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Nominal size of the filter in bytes (m bits, packed)."""
        return (self.m + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover
        return f"BloomFilter(m={self.m}, k={self.k}, count={self.count})"

