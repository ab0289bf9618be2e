"""A classic Bloom filter, from scratch on a NumPy bit array.

Hash family: double hashing over two independent 64-bit digests of the
item (Kirsch-Mitzenmacher), which provably preserves the asymptotic
false-positive rate of ``k`` independent hashes while costing two
hashes per operation.
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable, Iterable, Tuple

import numpy as np

from repro.errors import BloomCapacityError, ValidationError

__all__ = ["optimal_parameters", "BloomFilter"]


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


def _digests(item: Hashable) -> Tuple[int, int]:
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

    def _positions(self, item: Hashable) -> np.ndarray:
        h1, h2 = _digests(item)
        idx = (h1 + h2 * np.arange(self.k, dtype=np.uint64)) % np.uint64(self.m)
        return idx.astype(np.int64)

    def add(self, item: Hashable) -> None:
        """Insert an item.  Raises :class:`BloomCapacityError` past capacity."""
        if self.count >= self.capacity:
            raise BloomCapacityError(
                f"bloom filter sized for {self.capacity} items is full"
            )
        self._bits[self._positions(item)] = True
        self.count += 1

    def update(self, items: Iterable[Hashable]) -> None:
        """Insert many items."""
        for item in items:
            self.add(item)

    def __contains__(self, item: Hashable) -> bool:
        return bool(self._bits[self._positions(item)].all())

    # -- accounting --------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Nominal size of the filter in bytes (m bits, packed)."""
        return (self.m + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover
        return f"BloomFilter(m={self.m}, k={self.k}, count={self.count})"

