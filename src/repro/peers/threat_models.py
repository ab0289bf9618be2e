"""Threat-model scenario synthesis for the Fig. 4 error analyses.

A scenario is a *matched pair* of trust matrices built from one shared
transaction stream:

* ``S_true`` — every rating reported truthfully (what the reputation
  system would see in an attack-free world), and
* ``S_attacked`` — the same transactions, but malicious raters apply
  their dishonesty rules (inversion or collusion boosting).

Sharing the transaction stream (common random numbers) means the RMS
error between the aggregations of the two matrices isolates exactly the
damage done by dishonest *feedback*, which is what Fig. 4 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.distributions.powerlaw import FeedbackCountDistribution
from repro.errors import ValidationError
from repro.peers.behavior import PeerPopulation, rate_transaction
from repro.trust.feedback import FeedbackLedger
from repro.trust.matrix import TrustMatrix
from repro.types import TransactionOutcome
from repro.utils.rng import SeedLike, as_generator

__all__ = ["ThreatScenario", "build_independent_scenario", "build_collusive_scenario"]

#: fabricated mutual transactions per ordered colluder pair
_COLLUSION_BOOST = 5


@dataclass
class ThreatScenario:
    """A matched honest/attacked trust-matrix pair plus its population."""

    population: PeerPopulation
    #: matrix from truthful reports of the shared transaction stream
    S_true: TrustMatrix
    #: matrix from the same stream with dishonest reporting applied
    S_attacked: TrustMatrix
    #: total transactions generated
    transactions: int

    @property
    def n(self) -> int:
        """Number of peers."""
        return self.population.n


def _generate(population: PeerPopulation, rng: SeedLike) -> ThreatScenario:
    """Run the shared transaction stream and build both ledgers.

    Each rater's transaction count comes from the paper's feedback-count
    power law (d_max = 200, d_avg = 20).

    ``_COLLUSION_BOOST`` extra mutual transactions per collusion pair
    model the "rate ... very high" boosting — colluders don't merely lie
    about real downloads, they fabricate volume between themselves.
    """
    gen = as_generator(rng)
    n = population.n
    truthful = FeedbackLedger(n)
    attacked = FeedbackLedger(n)
    counts = FeedbackCountDistribution().sample_counts(n, gen)
    tx = 0
    for rater in range(int(n)):
        k = int(counts[rater])
        partners = gen.integers(0, n - 1, size=k)
        partners[partners >= rater] += 1
        for ratee in partners.tolist():
            outcome = population.serve(ratee, gen)
            truthful.record_transaction(rater, ratee, outcome)
            attacked.record_transaction(
                rater, ratee, rate_transaction(population, rater, ratee, outcome)
            )
            tx += 1
    # Fabricated intra-group boosting (attacked ledger only).
    if population.group_count() > 0 and _COLLUSION_BOOST > 0:
        for g in range(population.group_count()):
            members = np.flatnonzero(population.group == g)
            for a in members.tolist():
                for b in members.tolist():
                    if a == b:
                        continue
                    for _ in range(_COLLUSION_BOOST):
                        attacked.record_transaction(
                            a, b, TransactionOutcome.AUTHENTIC
                        )
                        tx += 1
    return ThreatScenario(
        population=population,
        S_true=TrustMatrix.from_ledger(truthful),
        S_attacked=TrustMatrix.from_ledger(attacked),
        transactions=tx,
    )


def build_independent_scenario(
    n: int,
    malicious_fraction: float,
    *,
    rng: SeedLike = None,
) -> ThreatScenario:
    """Independent threat model (§6.1): lone cheaters with inverted feedback.

    Parameters
    ----------
    n:
        Number of peers (paper: 1000).
    malicious_fraction:
        Fraction gamma of independent malicious peers.
    rng:
        Seed/generator; drives population sampling and the shared
        transaction stream.
    """
    gen = as_generator(rng)
    population = PeerPopulation.build(
        n, malicious_fraction=malicious_fraction, collusive=False, rng=gen
    )
    return _generate(population, gen)


def build_collusive_scenario(
    n: int,
    malicious_fraction: float,
    group_size: int,
    *,
    rng: SeedLike = None,
) -> ThreatScenario:
    """Collusive threat model (§6.1): groups boosting each other.

    Parameters
    ----------
    n:
        Number of peers.
    malicious_fraction:
        Total fraction of collusive peers (paper: 5% and 10%).
    group_size:
        Peers per collusion group (Fig. 4(b) sweeps this).
    """
    if group_size < 2:
        raise ValidationError(f"group_size must be >= 2, got {group_size}")
    gen = as_generator(rng)
    population = PeerPopulation.build(
        n,
        malicious_fraction=malicious_fraction,
        collusive=True,
        group_size=group_size,
        rng=gen,
    )
    return _generate(population, gen)
