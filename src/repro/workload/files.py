"""The file catalog: popularity-skewed copies placed on skewed owners.

§6.4: "There are over 100,000 files simulated in these experiments.  The
number of copies of each file is determined by a Power-law distribution
with a popularity rate phi = 1.2.  Each peer is assigned with a number
of files based on the Sarioiu distribution."

Construction: file ``f`` (1-based popularity rank) gets
``copies(f) ∝ f^-phi`` copies (at least one); each copy is placed on a
peer drawn with probability proportional to the peer's Saroiu ownership
count, without duplicating a file on one peer.  The inverted index
(file -> owner ids) is what query resolution needs.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.distributions.powerlaw import powerlaw_weights
from repro.distributions.saroiu import SaroiuFileOwnership
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator

__all__ = ["FileCatalog"]

#: copy-count power-law exponent (the paper's popularity rate phi)
_PHI = 1.2

#: average copies per file (scales total placement volume)
_MEAN_COPIES = 5.0


class FileCatalog:
    """Files, their copy counts, and the file -> owners index.

    Parameters
    ----------
    n_files:
        Catalog size (paper: > 100_000).
    n_peers:
        Number of peers to place copies on.

    Copy counts follow the power law with exponent ``_PHI`` (paper:
    1.2), ``_MEAN_COPIES`` per file on average; placement is weighted by the default Saroiu ownership model.
    """

    def __init__(self, n_files: int, n_peers: int, *, rng: SeedLike = None):
        if n_files < 1:
            raise ValidationError(f"n_files must be >= 1, got {n_files}")
        if n_peers < 1:
            raise ValidationError(f"n_peers must be >= 1, got {n_peers}")
        gen = as_generator(rng)
        self.n_files = int(n_files)
        self.n_peers = int(n_peers)

        # Copy counts: proportional to rank^-phi, scaled to the target
        # mean, floored at one copy so every file exists somewhere.
        weights = powerlaw_weights(self.n_files, _PHI)
        scale = _MEAN_COPIES * self.n_files / weights.sum()
        copies = np.maximum(1, np.round(scale * weights)).astype(np.int64)
        # No file can have more copies than peers (one copy per owner).
        np.minimum(copies, self.n_peers, out=copies)

        # Placement weights: Saroiu ownership counts (free riders get 0
        # weight and thus own nothing, matching the measurement).
        counts = SaroiuFileOwnership().sample_counts(self.n_peers, gen).astype(np.float64)
        if counts.sum() == 0:
            counts[:] = 1.0  # degenerate draw: fall back to uniform
        placement_p = counts / counts.sum()

        # Vectorized placement: draw owners for every copy in one call
        # (with replacement), then collapse duplicates within a file.
        # Collisions shave a few copies off hot files, which is harmless
        # — only distinct owners matter for query resolution.
        sharers = np.flatnonzero(counts > 0)
        sharer_p = placement_p[sharers] / placement_p[sharers].sum()
        total = int(copies.sum())
        draws = gen.choice(sharers, size=total, replace=True, p=sharer_p)
        bounds = np.concatenate(([0], np.cumsum(copies)))
        self._owners: List[np.ndarray] = [
            np.unique(draws[bounds[f] : bounds[f + 1]]) for f in range(self.n_files)
        ]

    # -- queries ------------------------------------------------------------

    def owners(self, file_rank: int) -> np.ndarray:
        """Owner peer ids of a file (ascending, copy)."""
        self._check_rank(file_rank)
        return self._owners[file_rank - 1].copy()

    @property
    def total_copies(self) -> int:
        """Total placed copies across all files."""
        return int(sum(len(o) for o in self._owners))

    def _check_rank(self, file_rank: int) -> None:
        if not 1 <= file_rank <= self.n_files:
            raise ValidationError(
                f"file_rank must be in [1, {self.n_files}], got {file_rank}"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FileCatalog(files={self.n_files}, peers={self.n_peers}, "
            f"copies={self.total_copies})"
        )
