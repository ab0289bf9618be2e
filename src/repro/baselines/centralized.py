"""Centralized eigenvector computation — the accuracy oracle.

The converged global reputation vector is the principal left eigenvector
of the normalized trust matrix ``S`` (stationary distribution of the
Markov chain, §4.1).  This module computes it two independent ways —
power iteration and ARPACK — and cross-checks them, so every other
component in the repository has a trustworthy reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import sparse

from repro.errors import ConvergenceError, ValidationError
from repro.trust.matrix import TrustMatrix, as_csr

__all__ = ["CentralizedEigenvector"]

#: L1 convergence tolerance of power iteration
_TOL = 1e-12

#: power-iteration budget
_MAX_ITER = 100_000

#: largest L1 distance between the power-iteration and ARPACK vectors
#: that :meth:`CentralizedEigenvector.compute` accepts
_CHECK_TOL = 1e-6


@dataclass
class _EigResult:
    vector: np.ndarray
    iterations: int
    residual: float


class CentralizedEigenvector:
    """Computes the stationary reputation vector of a trust matrix.

    Parameters
    ----------
    S:
        The row-stochastic trust matrix.

    Power iteration stops at an L1 step below ``_TOL`` and gives up
    after ``_MAX_ITER`` iterations.
    """

    def __init__(self, S: Union[TrustMatrix, sparse.spmatrix, np.ndarray]):
        self._S = as_csr(S)
        if self._S.shape[0] != self._S.shape[1]:
            raise ValidationError(f"matrix must be square, got {self._S.shape}")
        self._ST = self._S.T.tocsr()

    @property
    def n(self) -> int:
        """Number of peers."""
        return self._S.shape[0]

    def power_iteration(self) -> _EigResult:
        """Left principal eigenvector by *lazy* power iteration.

        Iterates on the lazy chain ``(I + S)/2``, which has exactly the
        same stationary vector as ``S`` but is guaranteed aperiodic —
        plain power iteration oscillates forever on (near-)periodic
        trust matrices, which sparse feedback graphs do produce (their
        subdominant eigenvalues can sit on the unit circle).
        """
        n = self.n
        v = np.full(n, 1.0 / n)
        for it in range(1, _MAX_ITER + 1):
            v_new = 0.5 * (v + self._ST @ v)
            total = v_new.sum()
            if total <= 0:
                raise ConvergenceError(
                    "iteration collapsed to zero mass; matrix is not stochastic"
                )
            v_new /= total
            resid = float(np.abs(v_new - v).sum())
            v = v_new
            if resid < _TOL:
                return _EigResult(vector=v, iterations=it, residual=resid)
        raise ConvergenceError(
            f"power iteration did not reach tol={_TOL} in {_MAX_ITER} iters",
            steps=_MAX_ITER,
            residual=resid,
        )

    def arpack(self) -> np.ndarray:
        """Left principal eigenvector via ARPACK (dense fallback below n=16).

        Works on the lazy chain ``(I + S)/2`` like :meth:`power_iteration`:
        a periodic chain has other eigenvalues on the unit circle, and
        "largest modulus" would otherwise return one of those rotations
        instead of the stationary eigenvector.

        The first call imports ``scipy.sparse.linalg`` (and with it
        ``scipy.linalg``).  This module does not import it at load time:
        only this cross-check needs it.
        """
        from scipy.sparse import linalg as splinalg

        n = self.n
        lazy = 0.5 * (sparse.identity(n, format="csr") + self._ST)
        if n < 16:
            eigvals, eigvecs = np.linalg.eig(lazy.toarray())
            idx = int(np.argmax(np.real(eigvals)))
            vec = np.real(eigvecs[:, idx])
        else:
            _vals, vecs = splinalg.eigs(lazy.astype(np.float64), k=1, which="LM")
            vec = np.real(vecs[:, 0])
        # Fix sign and normalize to a probability vector.
        if vec.sum() < 0:
            vec = -vec
        vec = np.clip(vec, 0.0, None)
        total = vec.sum()
        if total <= 0:
            raise ConvergenceError("ARPACK eigenvector is not sign-definite")
        return vec / total

    def compute(self, *, cross_check: bool = False) -> np.ndarray:
        """The reference vector (power iteration), optionally ARPACK-checked.

        Raises
        ------
        ConvergenceError
            If the two methods disagree by more than ``_CHECK_TOL`` in L1
            (indicates a defective or periodic chain).
        """
        result = self.power_iteration()
        if cross_check:
            other = self.arpack()
            dist = float(np.abs(result.vector - other).sum())
            if dist > _CHECK_TOL:
                raise ConvergenceError(
                    f"power iteration and ARPACK disagree by L1={dist:.3g}"
                )
        return result.vector

    def __repr__(self) -> str:  # pragma: no cover
        return f"CentralizedEigenvector(n={self.n})"
