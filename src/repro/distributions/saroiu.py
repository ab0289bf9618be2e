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

__all__ = ["SaroiuFileOwnership"]

#: probability a peer shares zero files (Saroiu: ~25% on Gnutella)
_FREE_RIDER_FRACTION = 0.25

#: Pareto tail index of the sharing body
_SHAPE = 1.2

#: support of the sharing body (inclusive bounds)
_MIN_FILES = 1
_MAX_FILES = 10_000


class SaroiuFileOwnership:
    """Files-per-peer distribution: free-rider mass + bounded Pareto body.

    A peer shares nothing with probability ``_FREE_RIDER_FRACTION``;
    otherwise its count follows a bounded Pareto with tail index
    ``_SHAPE`` on ``_MIN_FILES..._MAX_FILES``.
    """

    def _bounded_pareto(self, size: int, gen: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling of the bounded Pareto on [min, max]."""
        a = _SHAPE
        lo = float(_MIN_FILES)
        hi = float(_MAX_FILES) + 1.0  # +1 so flooring can reach max_files
        u = gen.random(size)
        # Bounded Pareto inverse CDF.
        x = (lo**-a - u * (lo**-a - hi**-a)) ** (-1.0 / a)
        return np.minimum(np.floor(x).astype(np.int64), _MAX_FILES)

    def sample_counts(self, n_peers: int, rng: SeedLike = None) -> np.ndarray:
        """File counts for ``n_peers`` peers (zeros are free riders)."""
        if n_peers < 0:
            raise ValidationError(f"n_peers must be >= 0, got {n_peers}")
        gen = as_generator(rng)
        counts = self._bounded_pareto(n_peers, gen)
        free = gen.random(n_peers) < _FREE_RIDER_FRACTION
        counts[free] = 0
        return counts
