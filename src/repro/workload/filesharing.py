"""The P2P file-sharing simulation of §6.4 (Fig. 5).

Per query: a random peer asks for a file drawn from the two-segment
Zipf; the (simulated) flood returns every live owner; the selection
policy picks the download source; the download is authentic or not
according to the source's inauthentic-response rate; the requester
rates the source per its behavioral class; and "the system updates
global reputation scores at all sites after 1,000 queries".

The query success rate — fraction of queries ending in an authentic
download — is the headline output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.baselines.notrust import SelectionPolicy
from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust
from repro.errors import ValidationError
from repro.peers.behavior import PeerPopulation, rate_transaction, reputation_inverse_rate
from repro.trust.feedback import FeedbackLedger
from repro.trust.matrix import TrustMatrix
from repro.types import TransactionOutcome
from repro.utils.logging import get_logger
from repro.utils.rng import RngStreams, SeedLike
from repro.workload.files import FileCatalog
from repro.workload.queries import QueryStream

__all__ = ["SharingResult", "FileSharingSimulation"]

_log = get_logger("workload.filesharing")


@dataclass
class SharingResult:
    """Outcome of a file-sharing run."""

    #: fraction of queries that ended in an authentic download
    success_rate: float
    #: per-refresh-window success rates, in order
    window_success: List[float]
    #: total queries issued
    queries: int
    #: queries that found no live source
    unresolved: int
    #: reputation refreshes performed
    refreshes: int
    #: total gossip steps spent across refreshes (overhead accounting)
    gossip_steps: int

    @property
    def steady_state_success(self) -> float:
        """Mean success over the second half of the windows (warmed up)."""
        if not self.window_success:
            return self.success_rate
        half = self.window_success[len(self.window_success) // 2 :]
        return float(np.mean(half))


class FileSharingSimulation:
    """Reputation-assisted file sharing on a peer population.

    Parameters
    ----------
    population:
        Peer behavioral classes and service qualities.
    catalog:
        File catalog (owners index).
    policy:
        Download-source selection policy (GossipTrust or NoTrust).
    refresh_interval:
        Queries between global reputation refreshes (paper: 1000).
    config:
        GossipTrust parameters for the refresh aggregations (probe mode
        recommended — refresh cost is not what Fig. 5 measures).
    inauthentic_model:
        ``"class"`` — per-class rates (honest 0.05, malicious 1-quality);
        ``"reputation"`` — rate inversely proportional to current global
        reputation (§6.4's stated model; self-consistent across
        refreshes).

    Queries resolve through the whole-network owner index: the paper
    floods each query "over the entire P2P network", so every live
    owner responds.
    """

    def __init__(
        self,
        population: PeerPopulation,
        catalog: FileCatalog,
        policy: SelectionPolicy,
        *,
        refresh_interval: int = 1000,
        config: Optional[GossipTrustConfig] = None,
        inauthentic_model: str = "class",
        use_gossip: bool = True,
        rng: SeedLike = None,
    ):
        if catalog.n_peers != population.n:
            raise ValidationError(
                f"catalog peers ({catalog.n_peers}) != population ({population.n})"
            )
        if refresh_interval < 1:
            raise ValidationError(
                f"refresh_interval must be >= 1, got {refresh_interval}"
            )
        if inauthentic_model not in ("class", "reputation"):
            raise ValidationError(f"unknown inauthentic_model {inauthentic_model!r}")
        self.population = population
        self.catalog = catalog
        self.policy = policy
        self.refresh_interval = int(refresh_interval)
        n = population.n
        self.config = (config or GossipTrustConfig(n=n, engine_mode="probe")).with_updates(n=n)
        self.inauthentic_model = inauthentic_model
        self.use_gossip = bool(use_gossip)
        self._streams = RngStreams(rng)
        self._queries = QueryStream(n, catalog.n_files, rng=self._streams.get("queries"))
        self._outcome_rng = self._streams.get("outcomes")
        self.ledger = FeedbackLedger(n)
        self._reputation = np.full(n, 1.0 / n)
        self._rates = self._compute_rates()
        # Power nodes persist across refreshes ("identified ... for the
        # next round of reputation updating", §3).  The carried-over set
        # anchors the greedy mixing on the previous round's most
        # reputable peers — the defense that keeps dishonest-feedback
        # blocks from capturing the ranking over successive refreshes.
        self._power_nodes: frozenset = frozenset()

    # -- rates ------------------------------------------------------------

    def _compute_rates(self) -> np.ndarray:
        if self.inauthentic_model == "reputation":
            return reputation_inverse_rate(self._reputation)
        # class mode: a peer serves inauthentic with 1 - quality
        return 1.0 - self.population.quality

    # -- main loop -----------------------------------------------------------

    def run(self, total_queries: int) -> SharingResult:
        """Issue ``total_queries`` queries and return the success report."""
        if total_queries < 1:
            raise ValidationError(f"total_queries must be >= 1, got {total_queries}")
        successes = 0
        unresolved = 0
        refreshes = 0
        gossip_steps = 0
        window_hits = 0
        window_size = 0
        windows: List[float] = []
        for q in self._queries.take(total_queries):
            window_size += 1
            owners = self.catalog.owners(q.file_rank)
            owners = owners[owners != q.requester]
            if owners.size == 0:
                unresolved += 1
            else:
                source = self.policy.choose(owners.tolist())
                authentic = self._outcome_rng.random() >= self._rates[source]
                outcome = (
                    TransactionOutcome.AUTHENTIC
                    if authentic
                    else TransactionOutcome.INAUTHENTIC
                )
                if authentic:
                    successes += 1
                    window_hits += 1
                reported = rate_transaction(
                    self.population, q.requester, source, outcome
                )
                self.ledger.record_transaction(q.requester, source, reported)
            if (q.index + 1) % self.refresh_interval == 0:
                gossip_steps += self._refresh()
                refreshes += 1
                windows.append(window_hits / window_size)
                window_hits = 0
                window_size = 0
        if window_size:
            windows.append(window_hits / window_size)
        return SharingResult(
            success_rate=successes / total_queries,
            window_success=windows,
            queries=total_queries,
            unresolved=unresolved,
            refreshes=refreshes,
            gossip_steps=gossip_steps,
        )

    def _refresh(self) -> int:
        """Recompute global scores from the ledger; returns gossip steps."""
        S = TrustMatrix.from_ledger(self.ledger)
        steps = 0
        if self.use_gossip:
            system = GossipTrust(
                S,
                self.config,
                power_nodes=self._power_nodes,
                rng=self._streams.get("refresh"),
            )
            result = system.run(raise_on_budget=False)
            self._reputation = result.vector
            self._power_nodes = result.power_nodes
            steps = result.total_gossip_steps
        else:
            # Exact refresh (fast path for NoTrust runs, which ignore it).
            from repro.core.aggregation import exact_global_reputation

            res = exact_global_reputation(
                S,
                self.config,
                power_nodes=self._power_nodes,
                raise_on_budget=False,
            )
            self._reputation = res.vector
            self._power_nodes = res.power_nodes
        self.policy.update_scores(self._reputation)
        if self.inauthentic_model == "reputation":
            self._rates = self._compute_rates()
        _log.debug("refreshed reputations (%d gossip steps)", steps)
        return steps

    @property
    def reputation(self) -> np.ndarray:
        """Latest global reputation vector (copy)."""
        return self._reputation.copy()
