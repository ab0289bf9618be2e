"""Saroiu-style file-ownership distribution.

§6.4 assigns "each peer ... a number of files based on the Sarioiu
distribution", referring to the Saroiu et al. measurement study of
Napster/Gnutella hosts.  That study reports a heavily skewed share
distribution: roughly a quarter of peers share nothing (free riders),
most sharers hold a few dozen files, and a small head shares thousands.

**Substitution note (see DESIGN.md):** the original CDF tables are not
redistributable, so we model the measurement with the standard
approximation used in P2P simulators: a free-rider point mass at zero
plus a bounded Pareto body.  The defaults (25% free riders, shape 1.2,
range 1..10_000) match the study's headline statistics — the qualitative
property the experiments need is only that file placement is highly
skewed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range, check_probability

__all__ = ["SaroiuFileOwnership"]


class SaroiuFileOwnership:
    """Files-per-peer distribution: free-rider mass + bounded Pareto body.

    Parameters
    ----------
    free_rider_fraction:
        Probability a peer shares zero files (Saroiu: ~25% on Gnutella).
    shape:
        Pareto tail index of the sharing body.
    min_files, max_files:
        Support of the sharing body (inclusive bounds).
    """

    def __init__(
        self,
        free_rider_fraction: float = 0.25,
        shape: float = 1.2,
        min_files: int = 1,
        max_files: int = 10_000,
    ):
        check_probability("free_rider_fraction", free_rider_fraction)
        check_in_range("shape", shape, low=0.0, low_inclusive=False)
        if min_files < 1:
            raise ValidationError(f"min_files must be >= 1, got {min_files}")
        if max_files < min_files:
            raise ValidationError(
                f"max_files must be >= min_files, got {max_files} < {min_files}"
            )
        self.free_rider_fraction = float(free_rider_fraction)
        self.shape = float(shape)
        self.min_files = int(min_files)
        self.max_files = int(max_files)

    def _bounded_pareto(self, size: int, gen: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling of the bounded Pareto on [min, max]."""
        a = self.shape
        lo = float(self.min_files)
        hi = float(self.max_files) + 1.0  # +1 so flooring can reach max_files
        u = gen.random(size)
        # Bounded Pareto inverse CDF.
        x = (lo**-a - u * (lo**-a - hi**-a)) ** (-1.0 / a)
        return np.minimum(np.floor(x).astype(np.int64), self.max_files)

    def sample_counts(self, n_peers: int, rng: SeedLike = None) -> np.ndarray:
        """File counts for ``n_peers`` peers (zeros are free riders)."""
        if n_peers < 0:
            raise ValidationError(f"n_peers must be >= 0, got {n_peers}")
        gen = as_generator(rng)
        counts = self._bounded_pareto(n_peers, gen)
        free = gen.random(n_peers) < self.free_rider_fraction
        counts[free] = 0
        return counts

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SaroiuFileOwnership(free_riders={self.free_rider_fraction}, "
            f"shape={self.shape}, range=[{self.min_files}, {self.max_files}])"
        )
