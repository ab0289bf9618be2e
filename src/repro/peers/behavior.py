"""Peer populations and behavioral rules.

A :class:`PeerPopulation` assigns every peer a behavioral class
(:class:`~repro.types.PeerClass`), an intrinsic *service quality* (the
probability a transaction it serves is authentic), and — for colluders —
a collusion group id.  Rating rules implement the paper's §6.1:

* honest peers rate what they experienced;
* independent malicious peers invert — "they rate the peers who provide
  good service very low and rate those who provide bad service very
  high";
* collusive peers "rate the peers in their collusion group very high and
  rate outsiders very low".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.types import PeerClass, TransactionOutcome
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_probability

__all__ = [
    "PeerPopulation",
    "rate_transaction",
    "reputation_inverse_rate",
]

#: authentic-service probability of an honest peer
HONEST_QUALITY = 0.95
#: authentic-service probability of a malicious peer ("cheat during
#: transactions", §6.1)
MALICIOUS_QUALITY = 0.2

#: inauthentic-response rate of a peer holding the uniform score 1/n
_BASE_RATE = 0.05
#: inauthentic-response rate ceiling
_RATE_CAP = 0.95


@dataclass
class PeerPopulation:
    """A peer population with behavioral classes and service qualities.

    Attributes
    ----------
    classes:
        Per-peer :class:`PeerClass` array (dtype object).
    quality:
        Per-peer authentic-service probability.
    group:
        Collusion group id per peer (-1 when not colluding).
    """

    classes: np.ndarray
    quality: np.ndarray
    group: np.ndarray

    @property
    def n(self) -> int:
        """Population size."""
        return self.classes.shape[0]

    @classmethod
    def build(
        cls,
        n: int,
        *,
        malicious_fraction: float = 0.0,
        collusive: bool = False,
        group_size: int = 0,
        rng: SeedLike = None,
    ) -> "PeerPopulation":
        """Sample a population.

        Parameters
        ----------
        n:
            Number of peers.
        malicious_fraction:
            Fraction gamma of malicious peers (chosen uniformly).
        collusive:
            If True, malicious peers are partitioned into collusion
            groups of ``group_size`` (the last group may be smaller);
            otherwise they act independently.
        group_size:
            Peers per collusion group (required when ``collusive``).

        Honest peers serve authentic files with probability
        ``HONEST_QUALITY``, malicious ones with ``MALICIOUS_QUALITY``.
        """
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        check_probability("malicious_fraction", malicious_fraction)
        if collusive and group_size < 2:
            raise ValidationError(
                f"collusive populations need group_size >= 2, got {group_size}"
            )
        gen = as_generator(rng)
        classes = np.full(n, PeerClass.HONEST, dtype=object)
        quality = np.full(n, HONEST_QUALITY)
        group = np.full(n, -1, dtype=np.int64)
        m = int(round(n * malicious_fraction))
        if m > 0:
            bad = gen.choice(n, size=m, replace=False)
            quality[bad] = MALICIOUS_QUALITY
            if collusive:
                classes[bad] = PeerClass.MALICIOUS_COLLUSIVE
                for g, start in enumerate(range(0, m, group_size)):
                    group[bad[start : start + group_size]] = g
            else:
                classes[bad] = PeerClass.MALICIOUS_INDEPENDENT
        return cls(classes=classes, quality=quality, group=group)

    # -- queries -----------------------------------------------------------

    def is_malicious(self, node: int) -> bool:
        """Whether ``node`` is malicious (either kind)."""
        return self.classes[node] in (
            PeerClass.MALICIOUS_INDEPENDENT,
            PeerClass.MALICIOUS_COLLUSIVE,
        )

    def malicious_mask(self) -> np.ndarray:
        """Boolean mask of malicious peers."""
        return np.fromiter(
            (self.is_malicious(i) for i in range(self.n)), dtype=bool, count=self.n
        )

    def honest_nodes(self) -> np.ndarray:
        """Ids of honest peers."""
        return np.flatnonzero(~self.malicious_mask())

    def malicious_nodes(self) -> np.ndarray:
        """Ids of malicious peers."""
        return np.flatnonzero(self.malicious_mask())

    def same_group(self, a: int, b: int) -> bool:
        """Whether two peers collude in the same group."""
        return bool(self.group[a] >= 0 and self.group[a] == self.group[b])

    def group_count(self) -> int:
        """Number of collusion groups."""
        gmax = int(self.group.max())
        return gmax + 1 if gmax >= 0 else 0

    def serve(self, node: int, gen: np.random.Generator) -> TransactionOutcome:
        """Sample the outcome of a transaction served by ``node``."""
        ok = gen.random() < self.quality[node]
        return TransactionOutcome.AUTHENTIC if ok else TransactionOutcome.INAUTHENTIC


def rate_transaction(
    population: PeerPopulation,
    rater: int,
    ratee: int,
    outcome: TransactionOutcome,
) -> TransactionOutcome:
    """The outcome *as reported* by ``rater`` (the dishonesty rules).

    Honest raters report the truth.  Independent malicious raters invert
    the experienced outcome.  Collusive raters report AUTHENTIC for
    group members and INAUTHENTIC for everyone else, regardless of the
    real outcome.
    """
    klass = population.classes[rater]
    if klass is PeerClass.MALICIOUS_INDEPENDENT:
        return (
            TransactionOutcome.INAUTHENTIC
            if outcome is TransactionOutcome.AUTHENTIC
            else TransactionOutcome.AUTHENTIC
        )
    if klass is PeerClass.MALICIOUS_COLLUSIVE:
        return (
            TransactionOutcome.AUTHENTIC
            if population.same_group(rater, ratee)
            else TransactionOutcome.INAUTHENTIC
        )
    return outcome


def reputation_inverse_rate(reputation: np.ndarray) -> np.ndarray:
    """Inauthentic-response rate inversely proportional to reputation (§6.4).

    "Every node has a rate to respond a query with inauthentic files.
    For simplicity, this rate is modeled inversely proportional to
    node's global reputation."  The uniform score ``1/n`` maps to the
    ``_BASE_RATE``, lower scores scale up proportionally, and the result
    is capped at ``_RATE_CAP`` (a peer nobody trusts serves junk almost
    always, not with probability > 1).
    """
    v = np.asarray(reputation, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError(f"reputation must be 1-D, got shape {v.shape}")
    n = v.shape[0]
    uniform = 1.0 / n
    with np.errstate(divide="ignore"):
        rate = _BASE_RATE * uniform / np.where(v > 0, v, np.inf)
    rate[v <= 0] = _RATE_CAP
    return np.minimum(rate, _RATE_CAP)
