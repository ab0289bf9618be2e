"""The normalized trust matrix ``S`` (Eq. 1) and its construction.

``s_ij = r_ij / sum_j r_ij`` makes every row of ``S`` a probability
distribution, so ``S`` is row-stochastic and the aggregation iteration
``V(t+1) = S^T V(t)`` (Eq. 2) is a Markov-chain step whose stationary
distribution is the global reputation vector.

Dangling rows — peers that issued no (positive) feedback — would break
stochasticity.  Following EigenTrust practice (which the paper inherits),
such rows are replaced by the uniform distribution ``1/n``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.analysis.sanitizer import InvariantSanitizer, sanitize_enabled
from repro.errors import ValidationError
from repro.trust.feedback import FeedbackLedger
from repro.utils.validation import check_square_matrix, check_vector

__all__ = ["TrustMatrix", "as_csr"]


class TrustMatrix:
    """Row-stochastic normalized trust matrix over ``n`` peers.

    Construct via :meth:`from_ledger` or :meth:`from_dense_raw`.
    Internally stored in CSR for fast ``S^T @ v`` products; a dense view
    is available for small systems and for tests.
    """

    def __init__(self, matrix: sparse.csr_matrix, *, _validated: bool = False) -> None:
        if not sparse.isspmatrix_csr(matrix):
            matrix = sparse.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"trust matrix must be square, got {matrix.shape}")
        if not _validated:
            data = matrix.data
            if data.size and (data.min() < -1e-12 or data.max() > 1 + 1e-12):
                raise ValidationError("trust matrix entries must lie in [0, 1]")
            rows = np.asarray(matrix.sum(axis=1)).ravel()
            if not np.allclose(rows, 1.0, atol=1e-8):
                bad = int(np.argmax(np.abs(rows - 1.0)))
                raise ValidationError(
                    f"trust matrix rows must sum to 1; row {bad} sums to {rows[bad]}"
                )
        elif sanitize_enabled():
            # Sanitizer soak runs re-check even the pre-validated
            # constructor path: a normalizer bug that hands over a
            # non-stochastic S with _validated=True surfaces here as a
            # structured InvariantViolation (Eq. 1 row-stochasticity).
            rows = np.asarray(matrix.sum(axis=1)).ravel()
            InvariantSanitizer().check_row_stochastic(
                rows, where="pre-validated trust matrix"
            )
        self._S = matrix
        #: lazily-built transposed CSR for the iteration (see _transpose)
        self._ST: Optional[sparse.csr_matrix] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ledger(cls, ledger: FeedbackLedger) -> "TrustMatrix":
        """Normalize a feedback ledger into ``S`` (Eq. 1).

        Peers with no positive outbound feedback get the uniform row
        ``1/n``.
        """
        n = ledger.n
        fb = np.full(n, 1.0 / n)
        rows_idx: list = []
        cols_idx: list = []
        vals: list = []
        row_sums = np.zeros(n)
        entries: list = list(ledger.nonzero_pairs())
        for i, j, r in entries:
            row_sums[i] += r
        dangling = np.flatnonzero(row_sums == 0)
        for i, j, r in entries:
            rows_idx.append(i)
            cols_idx.append(j)
            vals.append(r / row_sums[i])
        S = sparse.csr_matrix(
            (vals, (rows_idx, cols_idx)), shape=(n, n), dtype=np.float64
        )
        if dangling.size:
            S = sparse.lil_matrix(S)
            for i in dangling:
                S[i, :] = fb
            S = S.tocsr()
        return cls(S, _validated=True)

    @classmethod
    def from_dense_raw(cls, raw: np.ndarray) -> "TrustMatrix":
        """Normalize a dense raw score matrix ``R`` into ``S`` (Eq. 1)."""
        R = check_square_matrix("raw trust matrix", raw)
        if np.any(R < 0):
            raise ValidationError("raw local scores must be non-negative")
        np.fill_diagonal(R, 0.0)  # self-scores are meaningless and excluded
        n = R.shape[0]
        sums = R.sum(axis=1, keepdims=True)
        S = np.where(sums > 0, R / np.where(sums > 0, sums, 1.0), np.full(n, 1.0 / n))
        return cls(sparse.csr_matrix(S), _validated=True)

    # -- accessors -----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of peers."""
        return self._S.shape[0]

    @property
    def nnz(self) -> int:
        """Stored nonzeros (memory proxy)."""
        return self._S.nnz

    def dense(self) -> np.ndarray:
        """Dense copy of ``S`` (small systems / tests only)."""
        return self._S.toarray()

    def sparse(self) -> sparse.csr_matrix:
        """The underlying CSR matrix (do not mutate)."""
        return self._S

    def _transpose(self) -> sparse.csr_matrix:
        """The cached ``S^T`` in CSR form, built on first use.

        Lazy because the gossip kernels never need it (they iterate
        ``S`` itself; the exact oracle ``S^T @ v`` runs on the CSC
        *view* ``S.T`` without a copy), while an eager transpose would
        keep a second full-matrix CSR resident for the whole run —
        ~240 MiB at n = 10^6, a tenth of the large-n RSS budget.
        :meth:`aggregate` and :meth:`column` callers (the service
        layer's repeated exact cycles) still pay the O(nnz) build once.
        """
        if self._ST is None:
            self._ST = self._S.T.tocsr()
        return self._ST

    # -- incremental updates -------------------------------------------------

    def apply_row_deltas(self, raw_rows: Mapping[int, Mapping[int, float]]) -> None:
        """Replace the given rows of ``S`` with re-normalized raw scores.

        ``raw_rows`` maps ``rater -> {ratee: r_ij > 0}`` — the row-level
        delta format emitted by
        :meth:`~repro.trust.feedback.FeedbackLedger.drain_dirty`.  Each
        row is normalized per Eq. 1 (an empty/zero row becomes the
        uniform distribution, exactly as in :meth:`from_ledger`) and spliced into the CSR in one flat pass;
        untouched rows are copied wholesale.

        A materialized transpose is refreshed from the new CSR (one
        O(nnz) C-level pass; the transpose scatters a row change across
        many columns, so a sub-row patch would not pay for itself); one
        never built stays lazy.

        Complexity: O(nnz) array copies plus O(k) Python work for ``k``
        changed rows — no re-normalization or re-validation of the
        ``n - k`` unchanged rows.
        """
        n = self.n
        if not raw_rows:
            return
        # Normalize every delta row first (validating as we go) so a bad
        # row cannot leave the matrix half-patched.
        norm: Dict[int, Dict[int, float]] = {}
        for i in sorted(raw_rows):
            if not 0 <= i < n:
                raise ValidationError(f"row index {i} out of range [0, {n})")
            row = raw_rows[i]
            total = 0.0
            for j, r in row.items():
                if not 0 <= j < n:
                    raise ValidationError(f"column index {j} out of range [0, {n})")
                if j == i:
                    raise ValidationError("self-scores are not allowed in row deltas")
                if r < 0:
                    raise ValidationError(f"raw local scores are non-negative, got {r}")
                total += r
            if total > 0:
                norm[int(i)] = {int(j): r / total for j, r in row.items() if r > 0}
            else:
                # Dangling row: EigenTrust's uniform fallback.
                norm[int(i)] = dict.fromkeys(range(n), 1.0 / n)

        csr = self._S
        counts = np.diff(csr.indptr).astype(np.int64)
        for i, row_dict in norm.items():
            counts[i] = len(row_dict)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)
        pos_old = 0
        pos_new = 0
        for i in sorted(norm):
            keep = int(csr.indptr[i]) - pos_old  # unchanged rows before i
            if keep:
                indices[pos_new : pos_new + keep] = csr.indices[pos_old : pos_old + keep]
                data[pos_new : pos_new + keep] = csr.data[pos_old : pos_old + keep]
                pos_new += keep
            row_dict = norm[i]
            cols = np.fromiter(row_dict, dtype=np.int64, count=len(row_dict))
            vals = np.fromiter(row_dict.values(), dtype=np.float64, count=len(row_dict))
            order = np.argsort(cols)
            indices[pos_new : pos_new + cols.size] = cols[order]
            data[pos_new : pos_new + cols.size] = vals[order]
            pos_new += cols.size
            pos_old = int(csr.indptr[i + 1])
        tail = int(csr.indptr[n]) - pos_old
        if tail:
            indices[pos_new : pos_new + tail] = csr.indices[pos_old:]
            data[pos_new : pos_new + tail] = csr.data[pos_old:]
        patched = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        if sanitize_enabled():
            # Row-level re-validation: only the patched rows are checked.
            changed = np.fromiter(norm, dtype=np.int64, count=len(norm))
            sums = np.asarray(patched[changed].sum(axis=1)).ravel()
            InvariantSanitizer().check_row_stochastic(
                sums, where=f"apply_row_deltas({len(norm)} rows)"
            )
        self._S = patched
        # Keep a warm transpose warm (the service layer aggregates
        # every epoch); never materialize one that was not yet needed.
        self._ST = patched.T.tocsr() if self._ST is not None else None

    # -- the aggregation primitive -------------------------------------------

    def aggregate(self, v: np.ndarray) -> np.ndarray:
        """One exact aggregation cycle: ``S^T @ v`` (Eq. 2)."""
        vv = check_vector("v", v, size=self.n)
        return self._transpose() @ vv

    def spectral_gap(self) -> Tuple[float, float]:
        """(|lambda_1|, |lambda_2|) of ``S`` — controls cycle count d (§4.1).

        Uses dense eigenvalues below 800 nodes and sparse ARPACK above.
        The ARPACK branch imports ``scipy.sparse.linalg`` on first use;
        this module does not import it at load time.
        """
        n = self.n
        if n < 800:
            eigs = np.linalg.eigvals(self.dense())
        else:
            from scipy.sparse import linalg as splinalg

            k = min(6, n - 2)
            eigs = splinalg.eigs(self._S.astype(np.float64), k=k, return_eigenvectors=False)
        mags = np.sort(np.abs(eigs))[::-1]
        lam1 = float(mags[0])
        lam2 = float(mags[1]) if mags.size > 1 else 0.0
        return lam1, lam2

    def __repr__(self) -> str:  # pragma: no cover
        return f"TrustMatrix(n={self.n}, nnz={self.nnz})"


def as_csr(S: Union[TrustMatrix, sparse.spmatrix, np.ndarray]) -> sparse.csr_matrix:
    """The CSR form of a trust matrix given as any accepted type.

    A :class:`TrustMatrix` serves its own CSR (no copy), a sparse matrix
    converts, and anything else is read as a dense float64 array.
    """
    if isinstance(S, TrustMatrix):
        return S.sparse()
    if sparse.issparse(S):
        return S.tocsr()
    return sparse.csr_matrix(np.asarray(S, dtype=np.float64))
