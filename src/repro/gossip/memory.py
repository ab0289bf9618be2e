"""Pooled CSR storage for the gossip kernels.

The step loop of
:class:`~repro.gossip.engine.SynchronousGossipEngine` runs over
*preallocated* buffers (lint rule GT002 forbids allocations inside
its hot-marked regions).  :class:`CsrPool` holds one CSR matrix in
``indptr``/``indices``/``data`` arrays whose capacity grows
*geometrically* (:meth:`CsrPool.ensure`) and never per step: the
sync engine's SpGEMM writes into a pool sized by the closed-form
output bound ``min(2 * nnz, n * p)``, so a whole gossip cycle incurs
at most ``O(log(n * p))`` growth reallocations.

Pool indices are int32, so one pool holds at most
:func:`max_pool_columns` columns at a given ``n``;
:func:`min_shards_for` is the column-shard count the engine derives
from that bound.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ValidationError

__all__ = [
    "max_pool_columns",
    "min_shards_for",
    "CsrPool",
]

#: dtype of every CSR index array in the pools (one dtype keeps scipy's
#: C kernels on a single dispatch; n * p is validated against its range)
INDEX_DTYPE = np.int32


def max_pool_columns(n: int) -> int:
    """The widest CSR pool (columns) that keeps ``n * cols`` in int32 range."""
    return max(1, (int(np.iinfo(INDEX_DTYPE).max) - 1) // max(1, int(n)))


def min_shards_for(n: int, cols: int) -> int:
    """The fewest column shards splitting ``cols`` under the int32 guard."""
    per_shard = max_pool_columns(n)
    return -(-int(cols) // per_shard)  # ceil division


class CsrPool:
    """One CSR matrix in preallocated, geometrically grown arrays.

    The sync engine's CSR state matrices (X, W and their SpGEMM output)
    each live in one pool: a fixed ``indptr`` of ``n + 1`` int32s plus
    ``indices``/``data`` arrays whose *capacity* only ever grows — by
    doubling, clamped to the ``n * p`` full-occupancy ceiling — so a
    cycle's step loop performs no per-step allocations.  ``nnz`` tracks
    how much of the capacity is live.
    """

    __slots__ = ("n", "cols", "indptr", "indices", "data", "nnz", "_dtype")

    def __init__(
        self,
        n: int,
        cols: int,
        capacity: int,
        dtype: "np.dtype | type",
    ) -> None:
        if int(n) * int(cols) >= np.iinfo(INDEX_DTYPE).max:
            fit = max_pool_columns(n)
            raise ValidationError(
                f"CSR pool of shape ({n}, {cols}) needs {int(n) * int(cols)} "
                f"int32-indexed entries (>= 2**31 - 1 limit); at n = {n} a "
                f"pool holds at most {fit} columns — split the {cols} columns "
                f"across shards={min_shards_for(n, cols)} pools "
                f"(min_shards_for)"
            )
        self.n = int(n)
        self.cols = int(cols)
        self._dtype = np.dtype(dtype)
        capacity = max(1, min(int(capacity), self.full_capacity))
        self.indptr = np.empty(self.n + 1, INDEX_DTYPE)
        self.indptr[0] = 0
        self.indices = np.empty(capacity, INDEX_DTYPE)
        self.data = np.empty(capacity, self._dtype)
        self.nnz = 0

    @property
    def full_capacity(self) -> int:
        """The occupancy ceiling ``n * cols`` — capacity never exceeds it."""
        return self.n * self.cols

    @property
    def capacity(self) -> int:
        """Current element capacity of the ``indices``/``data`` arrays."""
        return int(self.indices.size)

    def ensure(self, needed: int) -> None:
        """Grow capacity to at least ``needed`` (geometric, clamped).

        Growing *discards* current contents — pools are grown in their
        role as SpGEMM *outputs*, where the previous contents are dead.
        """
        needed = min(int(needed), self.full_capacity)
        if self.capacity >= needed:
            return
        new_cap = min(max(needed, 2 * self.capacity), self.full_capacity)
        self.indices = np.empty(new_cap, INDEX_DTYPE)
        self.data = np.empty(new_cap, self._dtype)

    def release(self) -> None:
        """Shrink ``indices``/``data`` to one-element stubs, freeing them.

        Called by the step loop after a shard's dense handoff, when the
        CSR state has been gathered into dense slot arrays and the
        pool's capacity is dead weight.  The pool stays loadable — the
        next :meth:`load`/:meth:`ensure` simply regrows from the stub.
        """
        self.indices = np.empty(1, INDEX_DTYPE)
        self.data = np.empty(1, self._dtype)
        self.indptr[0] = 0
        self.nnz = 0

    def load(self, mat: sparse.csr_matrix) -> None:
        """Copy a scipy CSR matrix into the pool (casting dtypes)."""
        if mat.shape != (self.n, self.cols):
            raise ValidationError(
                f"matrix shape {mat.shape} does not fit pool ({self.n}, {self.cols})"
            )
        nnz = int(mat.nnz)
        self.ensure(nnz)
        self.indptr[:] = mat.indptr
        self.indices[:nnz] = mat.indices
        self.data[:nnz] = mat.data
        self.nnz = nnz

    def sum(self) -> float:
        """Sum of the live values (the push-sum mass reduction)."""
        return float(self.data[: self.nnz].sum())

    def min(self) -> float:
        """Minimum live value (0.0 when empty)."""
        return float(self.data[: self.nnz].min()) if self.nnz else 0.0

    def tocsr(self) -> sparse.csr_matrix:
        """A scipy view of the live contents (copies into exact-size arrays)."""
        return sparse.csr_matrix(
            (
                self.data[: self.nnz].copy(),
                self.indices[: self.nnz].copy(),
                self.indptr.copy(),
            ),
            shape=(self.n, self.cols),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CsrPool(n={self.n}, cols={self.cols}, nnz={self.nnz}, "
            f"capacity={self.capacity}, dtype={self._dtype.name})"
        )
