"""Node-by-node reference operations on one node's triplet vector.

The message engine gossips whole populations through the rows of a
:class:`~repro.gossip.vector.PopulationStore`, one array kernel per
operation.  :class:`NodeVector` is one node's vector with the per-node
operations of Algorithm 2 that those kernels replace: cycle
initialization (lines 5-11), halving, merging an arriving half (lines
12-19), payload size, and the per-node estimate and mass reads.  The
parity oracle (``tests/test_gossip_message_parity.py``) replays the
engine node by node with them, and ``tests/test_gossip_vector.py`` pins
them down.

:func:`three_pass_estimates` is the estimate kernel as the store ran it
before its one-divide form; the per-node reads use it, so the oracle
does not share the kernel it checks.

``known_ids`` and ``payload_size`` are cached; only operations that can
change the known set (``merge``, ``reset``) invalidate the caches.
"""

from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.gossip.vector import PopulationStore


@dataclass(frozen=True)
class Triplet:
    """One reputation-vector element ``<x_id, id, w_id>`` (Algorithm 2)."""

    x: float
    node: int
    w: float

    @property
    def estimate(self) -> float:
        """Gossiped global score of ``node``."""
        if self.w == 0.0:  # noqa: GT004 -- exact sentinel: w is 0.0 only before any mass arrives, never a rounded-down tiny value
            return float("inf") if self.x > 0 else float("nan")
        return self.x / self.w


def three_pass_estimates(X: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x / w`` where ``w > 0``, ``inf`` where only ``x > 0``, else ``nan``."""
    out.fill(np.nan)
    pos = W > 0
    np.divide(X, W, out=out, where=pos)
    out[~pos & (X > 0)] = np.inf
    return out


class NodeVector:
    """A node's gossiped reputation vector: ``x``/``w`` mass per peer id.

    An id is *known* to a node exactly when it carries any mass there;
    entries a node has never heard about are zero.  The arrays grow on
    demand when :meth:`reset` or :meth:`merge` names a higher id than
    they hold — except in a *view* (a :class:`NodeStore` row), whose
    capacity is fixed: an id beyond it raises
    :class:`~repro.errors.ValidationError`.
    """

    __slots__ = ("_x", "_w", "_fixed", "_known", "_size")

    def __init__(self, capacity: int = 0) -> None:
        self._x = np.zeros(capacity)
        self._w = np.zeros(capacity)
        #: the arrays are views into someone else's buffer: never regrow
        self._fixed = False
        #: cached ascending known-id tuple; None when stale
        self._known: Optional[Tuple[int, ...]] = None
        #: cached known-id count; None when stale
        self._size: Optional[int] = None

    @classmethod
    def _view(cls, x: np.ndarray, w: np.ndarray) -> "NodeVector":
        """A fixed-capacity vector over existing ``x``/``w`` rows (no copy)."""
        tv = cls(0)
        tv._x = x
        tv._w = w
        tv._fixed = True
        return tv

    @classmethod
    def initial(
        cls,
        owner: int,
        local_scores: Mapping[int, float],
        prior: Mapping[int, float],
        *,
        n: Optional[int] = None,
    ) -> "NodeVector":
        """A fresh vector after cycle initialization (see :meth:`reset`)."""
        return cls(0).reset(owner, local_scores, prior, n=n)

    def reset(
        self,
        owner: int,
        local_scores: Mapping[int, float],
        prior: Mapping[int, float],
        *,
        n: Optional[int] = None,
    ) -> "NodeVector":
        """Cycle initialization (Algorithm 2 lines 5-11) for node ``owner``, in place.

        ``x_j <- s_{owner,j} * v_owner(t-1)`` for every peer ``owner``
        has rated, and ``w_j <- 1`` only for ``j == owner``.  The arrays
        are zeroed and refilled, growing only if capacity is short to
        hold ``n``, ``owner`` and every rated id.
        """
        cap = int(n) if n is not None else 0
        cap = max(cap, owner + 1, *(int(j) + 1 for j in local_scores), 1)
        self._grow_to(cap)
        self._known = None
        self._size = None
        self._x[:] = 0.0
        self._w[:] = 0.0
        v_own = float(prior.get(owner, 0.0))
        for j, s in local_scores.items():
            if s < 0:
                raise ValidationError(f"negative local score s[{owner},{j}]={s}")
            if s > 0 and v_own > 0:
                self._x[j] = s * v_own
        self._w[owner] = 1.0
        return self

    def _grow_to(self, capacity: int) -> None:
        if capacity > self._x.shape[0]:
            if self._fixed:
                raise ValidationError(
                    f"id {capacity - 1} is outside this fixed-capacity vector "
                    f"of {self._x.shape[0]} ids"
                )
            x = np.zeros(capacity)
            w = np.zeros(capacity)
            x[: self._x.shape[0]] = self._x
            w[: self._w.shape[0]] = self._w
            self._x = x
            self._w = w

    def halve(self) -> "NodeVector":
        """Split in place; return the half-share to transmit (an equal copy)."""
        self._x *= 0.5
        self._w *= 0.5
        return self.copy()

    def merge(self, other: "NodeVector") -> None:
        """Component-wise sum of an arriving half-share (line 15)."""
        m = other._x.shape[0]
        self._grow_to(m)
        self._x[:m] += other._x
        self._w[:m] += other._w
        self._known = None
        self._size = None

    def triplet(self, j: int) -> Triplet:
        """The ``<x_j, j, w_j>`` triplet (zeros if unknown)."""
        if 0 <= j < self._x.shape[0]:
            return Triplet(x=float(self._x[j]), node=j, w=float(self._w[j]))
        return Triplet(x=0.0, node=j, w=0.0)

    def estimate(self, j: int) -> float:
        """Gossiped score ``beta_j = x_j / w_j`` for peer ``j``."""
        return self.triplet(j).estimate

    def known_ids(self) -> Tuple[int, ...]:
        """Peer ids with any mass (x or w) at this node, ascending."""
        if self._known is None:
            self._known = tuple(np.flatnonzero((self._x > 0) | (self._w > 0)).tolist())
            self._size = len(self._known)
        return self._known

    def payload_size(self) -> int:
        """Known-id count (the message size), without building the id tuple."""
        if self._size is None:
            if self._known is not None:
                self._size = len(self._known)
            else:
                self._size = int(np.count_nonzero((self._x > 0) | (self._w > 0)))
        return self._size

    def estimates_array(self, n: int) -> np.ndarray:
        """Dense length-``n`` estimate vector (nan where w == 0 and x == 0)."""
        out = np.full(n, np.nan)
        m = min(n, self._x.shape[0])
        three_pass_estimates(self._x[:m], self._w[:m], out[:m])
        return out

    @staticmethod
    def estimates_matrix(vectors: Sequence["NodeVector"], n: int) -> np.ndarray:
        """Stacked :meth:`estimates_array` of many vectors, one gather."""
        m = len(vectors)
        X = np.zeros((m, n))
        W = np.zeros((m, n))
        for i, tv in enumerate(vectors):
            k = min(n, tv._x.shape[0])
            X[i, :k] = tv._x[:k]
            W[i, :k] = tv._w[:k]
        return three_pass_estimates(X, W, np.empty((m, n)))

    def mass(self) -> Tuple[float, float]:
        """Total ``(sum x, sum w)`` held at this node."""
        return (float(self._x.sum()), float(self._w.sum()))

    def copy(self) -> "NodeVector":
        """Deep copy (growable, even when this vector is a view)."""
        tv = NodeVector()
        tv._x = self._x.copy()
        tv._w = self._w.copy()
        tv._known = self._known
        tv._size = self._size
        return tv

    def __iter__(self) -> Iterator[Triplet]:
        for j in self.known_ids():
            yield self.triplet(j)

    def __len__(self) -> int:
        return self.payload_size()


def csr_rows(S: sparse.csr_matrix) -> List[Mapping[int, float]]:
    """Per-node sparse rows ``{j: s_ij}`` of a CSR matrix."""
    return [
        dict(zip(S.indices[lo:hi].tolist(), S.data[lo:hi].tolist()))
        for lo, hi in zip(S.indptr[:-1].tolist(), S.indptr[1:].tolist())
    ]


class NodeStore(PopulationStore):
    """A store whose rows are :class:`NodeVector` views.

    :meth:`reset` initializes the rows node by node from per-node row
    mappings, as Algorithm 2 states it.
    """

    __slots__ = ("_views",)

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._views: List[Optional[NodeVector]] = [None] * self.n

    def row(self, node: int) -> NodeVector:
        """Node ``node``'s vector: a fixed-capacity view of its row (cached)."""
        tv = self._views[node]
        if tv is None:
            tv = self._views[node] = NodeVector._view(self.x[node], self.w[node])
        return tv

    def frozen_estimate_rows(self, rows: np.ndarray, live=None):
        # the row views write past the store's methods: freeze by copying now
        view = super().frozen_estimate_rows(rows, live)
        self._settle()
        return view

    def reset(self, rows: np.ndarray, S: sparse.csr_matrix, v: np.ndarray) -> None:
        local = csr_rows(S)
        prior = {i: float(v[i]) for i in range(self.n)}
        for node in rows.tolist():
            self.row(node).reset(node, local[node], prior, n=self.n)
