"""Object (file-version) reputation — the §7 poisoning-defense extension.

§7: "With the help of object reputation, a client can validate the
authenticity of an object before initiating parallel file download from
multiple peers."  Peer reputation rates *who* serves; object reputation
rates *what* is served — the defense against poisoning attacks where
popular files circulate in corrupted versions.

Model: each file exists in several *versions* (one genuine, the rest
poisoned).  After every download the requester votes on the version it
received (authentic / inauthentic as experienced); votes are weighted
by the voter's current *peer* reputation, so a horde of low-reputation
liars cannot outvote a few reputable peers.  A version's object score
is the Laplace-smoothed weighted fraction of authentic votes.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.types import TransactionOutcome

__all__ = ["ObjectReputation"]

#: prior authenticity belief for unseen versions
_PRIOR = 0.5

#: Laplace smoothing mass; an unvoted version scores ``_PRIOR``
_PRIOR_WEIGHT = 1.0

#: lowest score :meth:`ObjectReputation.validate` accepts as authentic
_VALID_THRESHOLD = 0.5


class ObjectReputation:
    """Per-(file, version) authenticity scores from weighted votes.

    Parameters
    ----------
    n_files:
        Catalog size (1-based popularity ranks, like the catalog).
    versions_per_file:
        Version ids run ``0 .. versions_per_file - 1`` for every file.

    Scores are smoothed by ``_PRIOR_WEIGHT`` votes of the neutral prior
    ``_PRIOR``.
    """

    def __init__(self, n_files: int, versions_per_file: int = 3):
        if n_files < 1:
            raise ValidationError(f"n_files must be >= 1, got {n_files}")
        if versions_per_file < 1:
            raise ValidationError(
                f"versions_per_file must be >= 1, got {versions_per_file}"
            )
        self.n_files = int(n_files)
        self.versions_per_file = int(versions_per_file)
        # (file, version) -> [weighted authentic votes, weighted total]
        self._votes: Dict[Tuple[int, int], np.ndarray] = {}
        self.votes_cast = 0

    def _check(self, file_rank: int, version: int) -> Tuple[int, int]:
        if not 1 <= file_rank <= self.n_files:
            raise ValidationError(
                f"file_rank must be in [1, {self.n_files}], got {file_rank}"
            )
        if not 0 <= version < self.versions_per_file:
            raise ValidationError(
                f"version must be in [0, {self.versions_per_file}), got {version}"
            )
        return int(file_rank), int(version)

    # -- voting -----------------------------------------------------------

    def vote(
        self,
        file_rank: int,
        version: int,
        outcome: TransactionOutcome,
        *,
        weight: float = 1.0,
    ) -> None:
        """Record a vote on a version, weighted by the voter's reputation.

        ``weight`` is typically ``n * v_voter`` (reputation relative to
        the uniform score) so an average peer votes with weight ~1.
        """
        key = self._check(file_rank, version)
        if weight < 0:
            raise ValidationError(f"vote weight must be >= 0, got {weight}")
        tally = self._votes.setdefault(key, np.zeros(2))
        if outcome is TransactionOutcome.AUTHENTIC:
            tally[0] += weight
        tally[1] += weight
        self.votes_cast += 1

    # -- queries ------------------------------------------------------------

    def score(self, file_rank: int, version: int) -> float:
        """Smoothed authenticity score of a version in [0, 1]."""
        key = self._check(file_rank, version)
        auth, total = self._votes.get(key, (0.0, 0.0))
        return float(
            (auth + _PRIOR * _PRIOR_WEIGHT) / (total + _PRIOR_WEIGHT)
        )

    def best_version(self, file_rank: int) -> int:
        """The version a client should fetch (highest score, lowest id ties)."""
        self._check(file_rank, 0)
        scores = [
            self.score(file_rank, ver) for ver in range(self.versions_per_file)
        ]
        return int(np.argmax(scores))

    def validate(self, file_rank: int, version: int) -> bool:
        """Pre-download check: is this version believed authentic?"""
        return bool(self.score(file_rank, version) >= _VALID_THRESHOLD)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ObjectReputation(files={self.n_files}, "
            f"versions={self.versions_per_file}, votes={self.votes_cast})"
        )
