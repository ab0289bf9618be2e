"""Reference oracle for the sync engine's step loop.

The slow, obvious form of Algorithm 2 over dense arrays: per step, build
the scatter matrix ``A`` (``A[targets[i], i] = 1``) and apply
``X <- 0.5 * (X + A @ X)`` (same for ``W``), checking the relative
estimate change every ``check_every`` steps.  It draws partners from the
generator it is given exactly as the engine does, so on the same stream
it walks the same mixing-matrix sequence and stops on the same step at
``check_every=1``.
"""

import numpy as np
from scipy import sparse


def oracle_cycle(S, v, rng, *, cols=None, epsilon=1e-4, check_every=1,
                 min_steps=2, max_steps=5_000):
    """Gossip one cycle; returns ``(column means of X/W, steps)``.

    ``cols`` restricts the state to those columns (probe mode); the
    default tracks all of them (full mode).
    """
    S = sparse.csr_matrix(S.sparse() if hasattr(S, "sparse") else S)
    n = S.shape[0]
    cols = np.arange(n) if cols is None else np.asarray(cols)
    X = (sparse.diags(v) @ S).toarray()[:, cols]
    W = np.eye(n)[:, cols]
    ids = np.arange(n)
    prev = None
    for step in range(1, max_steps + 1):
        targets = rng.integers(0, n - 1, size=n)
        targets[targets >= ids] += 1  # uniform over others, never self
        A = sparse.csr_matrix((np.ones(n), (targets, ids)), shape=(n, n))
        X = 0.5 * (X + A @ X)
        W = 0.5 * (W + A @ W)
        if step < min_steps or step % check_every or not np.all(W > 0):
            continue
        est = X / W
        if prev is not None:
            resid = np.abs(est - prev) / np.maximum(prev, 1e-12)
            if float(resid.max()) <= epsilon:
                return est.mean(axis=0), step
        prev = est
    raise AssertionError(f"oracle did not converge in {max_steps} steps")
