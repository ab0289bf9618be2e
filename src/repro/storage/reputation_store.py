"""Bracketed Bloom-filter reputation storage.

The GossipTrust storage scheme: quantize global scores into ``2^b``
brackets and keep one Bloom filter per bracket holding the ids of peers
whose score falls in it.  A lookup probes brackets best-first and
returns the representative score of the first bracket containing the
id.  Errors are bounded by (a) the bracket width and (b) Bloom false
positives, both measurable via :meth:`BloomReputationStore.report`.

Brackets are geometric: reputation scores are power-law distributed
(most mass on few peers), so equal-width linear brackets would put
almost every peer in bracket 0.  The top bracket edge is the maximum
observed score; the bottom edge is ``_MIN_SCORE`` (scores below it
share the lowest bracket).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.storage.bloom import BloomFilter, digests

__all__ = ["StorageReport", "BloomReputationStore"]

#: false-positive target of one lookup, across every filter it probes
_ERROR_RATE = 0.01

#: lower edge of the lowest bracket (scores are probabilities of
#: magnitude ~1/n; this covers n up to 10^9)
_MIN_SCORE = 1e-9


@dataclass(frozen=True)
class StorageReport:
    """Memory and accuracy accounting of a store snapshot."""

    #: total bloom bytes across brackets
    bloom_bytes: int
    #: bytes a raw (id, float64) table would need for the same peers
    raw_bytes: int
    #: mean absolute relative error of retrieved vs stored scores
    mean_relative_error: float
    #: worst-case relative error observed
    max_relative_error: float
    #: fraction of lookups answered from a wrong (false-positive) bracket
    misbracket_rate: float

    @property
    def compression_ratio(self) -> float:
        """raw_bytes / bloom_bytes (> 1 means the store saves memory).

        An empty report (un-built store) has ``bloom_bytes == 0`` and
        ``raw_bytes == 0``: the ratio is defined as 1.0 there — no
        memory saved, none wasted — rather than dividing by zero.
        """
        if self.bloom_bytes == 0:
            return 1.0 if self.raw_bytes == 0 else float("inf")
        return self.raw_bytes / self.bloom_bytes


class BloomReputationStore:
    """Stores one reputation vector as per-bracket Bloom filters.

    Parameters
    ----------
    bracket_bits:
        ``b``; the store uses ``2^b`` geometric brackets, each one a
        Bloom filter sized for a ``_ERROR_RATE / (2^b - 1)``
        false-positive rate, so a whole lookup stays within
        ``_ERROR_RATE``.
    """

    def __init__(self, bracket_bits: int = 5):
        if not 1 <= bracket_bits <= 16:
            raise ValidationError(f"bracket_bits must be in [1, 16], got {bracket_bits}")
        self.bracket_bits = int(bracket_bits)
        self.brackets = 1 << self.bracket_bits
        self._filters: List[BloomFilter] = []
        self._edges: Optional[np.ndarray] = None
        self._stored: Dict[int, float] = {}  # kept only for report(); not "used" by lookups

    # -- building ----------------------------------------------------------

    def build(self, scores: np.ndarray) -> None:
        """(Re)build the store from a full reputation vector.

        Safely re-entrant for per-epoch rebuilds: the new edges,
        filters, and score table are fully constructed *before* any
        instance state is touched, then installed in one final swap.  A
        validation error (or any mid-build failure) leaves the previous
        snapshot intact and servable, so a long-lived serving layer can
        call ``build`` every epoch without a window where lookups see a
        half-replaced store.
        """
        v = np.asarray(scores, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("scores must be a non-empty 1-D vector")
        if np.any(v < 0):
            raise ValidationError("reputation scores are non-negative")
        top = float(v.max())
        if top <= _MIN_SCORE:
            top = _MIN_SCORE * 10.0
        # Geometric edges from _MIN_SCORE to top, brackets+1 edges.
        edges = np.geomspace(_MIN_SCORE, top, self.brackets + 1)
        assignment = self._bracket_of(v, edges=edges)
        per_bracket = np.bincount(assignment, minlength=self.brackets)
        # A lookup probes at most ``brackets - 1`` filters above a node's
        # own; the union bound splits the error target among them.
        error_rate = _ERROR_RATE / (self.brackets - 1)
        filters = [
            BloomFilter(max(8, int(per_bracket[b]) * 2), error_rate)
            for b in range(self.brackets)
        ]
        stored: Dict[int, float] = {}
        for node, (score, b) in enumerate(zip(v, assignment)):
            filters[b].add(node)
            stored[node] = float(score)
        # Atomic install: all three references swap after full construction.
        self._edges = edges
        self._filters = filters
        self._stored = stored

    def _bracket_of(
        self, scores: np.ndarray, *, edges: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if edges is None:
            edges = self._edges
        assert edges is not None
        idx = np.searchsorted(edges, scores, side="right") - 1
        return np.clip(idx, 0, self.brackets - 1)

    # -- lookup ------------------------------------------------------------

    def lookup(self, node: int) -> float:
        """Retrieve the (quantized) score of ``node``.

        Probes brackets from the highest down — high-reputation lookups
        are the common case in peer selection — and returns the
        geometric midpoint of the first bracket whose filter claims the
        id.  Returns ``_MIN_SCORE`` if no bracket matches (cannot happen
        for stored ids: Bloom filters have no false negatives).
        """
        if self._edges is None:
            raise ValidationError("store is empty; call build() first")
        b = self._claiming_bracket(node)
        return _MIN_SCORE if b is None else self.representative(b)

    def _claiming_bracket(self, node: int) -> Optional[int]:
        """The highest bracket whose filter claims ``node``, hashed once."""
        h1, h2 = digests(node)
        for b in range(self.brackets - 1, -1, -1):
            if self._filters[b].contains_digests(h1, h2):
                return b
        return None

    def representative(self, bracket: int) -> float:
        """Geometric midpoint score of a bracket."""
        if self._edges is None:
            raise ValidationError("store is empty; call build() first")
        if not 0 <= bracket < self.brackets:
            raise ValidationError(f"bracket {bracket} out of range")
        lo, hi = self._edges[bracket], self._edges[bracket + 1]
        return float(np.sqrt(lo * hi))

    def lookup_vector(self, n: int) -> np.ndarray:
        """Retrieve scores for ids ``0..n-1`` as a dense vector."""
        return np.array([self.lookup(i) for i in range(n)])

    # -- accounting ----------------------------------------------------------

    @property
    def built(self) -> bool:
        """Whether the store holds a servable snapshot."""
        return self._edges is not None and bool(self._stored)

    def report(self) -> StorageReport:
        """Memory/accuracy report against the exact stored scores.

        An empty or un-built store reports all-zero accounting (and a
        neutral ``compression_ratio`` of 1.0) instead of raising — a
        per-epoch metrics scrape may race the first ``build``.
        """
        if not self.built:
            return StorageReport(
                bloom_bytes=0,
                raw_bytes=0,
                mean_relative_error=0.0,
                max_relative_error=0.0,
                misbracket_rate=0.0,
            )
        bloom_bytes = sum(f.size_bytes for f in self._filters)
        raw_bytes = len(self._stored) * (8 + 8)  # id + float64
        rels = []
        misbrackets = 0
        true_brackets = self._bracket_of(
            np.array([self._stored[i] for i in sorted(self._stored)])
        )
        for node in sorted(self._stored):
            truth = self._stored[node]
            found_bracket = self._claiming_bracket(node)
            got = _MIN_SCORE if found_bracket is None else self.representative(found_bracket)
            if truth > 0:
                rels.append(abs(got - truth) / truth)
            if found_bracket != int(true_brackets[node]):
                misbrackets += 1
        rel_arr = np.asarray(rels) if rels else np.zeros(1)
        return StorageReport(
            bloom_bytes=bloom_bytes,
            raw_bytes=raw_bytes,
            mean_relative_error=float(rel_arr.mean()),
            max_relative_error=float(rel_arr.max()),
            misbracket_rate=misbrackets / len(self._stored),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BloomReputationStore(brackets={self.brackets}, "
            f"stored={len(self._stored)})"
        )
