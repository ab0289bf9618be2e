"""The query stream: who asks for which file, in popularity order.

§6.4: queries are ranked by popularity with a two-segment power law
(phi = 0.63 for ranks 1-250, phi = 1.24 below), modelling measured
Gnutella query popularity.  Query rank maps to file rank directly —
popular queries ask for popular files — which is the standard coupling
and what makes popular files both well-replicated and hot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.distributions.query import TwoSegmentZipf
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator

__all__ = ["Query", "QueryStream"]


@dataclass(frozen=True)
class Query:
    """One issued query."""

    #: sequence number, starting at 0
    index: int
    #: issuing peer id
    requester: int
    #: 1-based file popularity rank being requested
    file_rank: int


class QueryStream:
    """Generates the paper's query workload.

    "At each time step, a query is randomly generated at a peer and
    completely executed before the next query step."  The requester is
    uniform over peers; the file follows the two-segment Zipf (the
    paper's 0.63/1.24 split at rank 250).

    Parameters
    ----------
    n_peers:
        Peers that can issue queries.
    n_files:
        Catalog size (ranks 1..n_files).
    """

    def __init__(self, n_peers: int, n_files: int, *, rng: SeedLike = None):
        if n_peers < 1:
            raise ValidationError(f"n_peers must be >= 1, got {n_peers}")
        if n_files < 1:
            raise ValidationError(f"n_files must be >= 1, got {n_files}")
        self.n_peers = int(n_peers)
        self.n_files = int(n_files)
        self.popularity = TwoSegmentZipf(self.n_files)
        self._rng = as_generator(rng)
        self.issued = 0

    def next_query(self) -> Query:
        """Generate the next query."""
        q = Query(
            index=self.issued,
            requester=int(self._rng.integers(self.n_peers)),
            file_rank=int(self.popularity.sample_ranks(1, self._rng)[0]),
        )
        self.issued += 1
        return q

    def take(self, count: int) -> Iterator[Query]:
        """Yield the next ``count`` queries."""
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        for _ in range(count):
            yield self.next_query()

    def __repr__(self) -> str:  # pragma: no cover
        return f"QueryStream(peers={self.n_peers}, files={self.n_files}, issued={self.issued})"
