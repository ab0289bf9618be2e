"""Node-by-node reference operations on one node's triplet vector.

The message engine gossips whole populations through the rows of a
:class:`~repro.gossip.vector.PopulationStore`.  :class:`NodeVector`
adds to :class:`~repro.gossip.vector.TripletVector` the per-node
operations of Algorithm 2 (lines 12-19) that the store's row passes
replace: halving, merging an arriving half, payload size, and the
per-node estimate and mass reads.  The parity oracle
(``tests/test_gossip_message_parity.py``) replays the engine node by
node with them, and ``tests/test_gossip_vector.py`` pins them down.

``known_ids`` and ``payload_size`` are cached; only operations that can
change the known set (``merge``, ``reset``) invalidate the caches.
"""

from typing import Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.gossip.vector import PopulationStore, TripletVector, _estimates_into
from repro.types import Triplet


class NodeVector(TripletVector):
    """A :class:`TripletVector` with the per-node gossip operations."""

    __slots__ = ("_known", "_size")

    def __init__(self, capacity: int = 0) -> None:
        super().__init__(capacity)
        #: cached ascending known-id tuple; None when stale
        self._known: Optional[Tuple[int, ...]] = None
        #: cached known-id count; None when stale
        self._size: Optional[int] = None

    @classmethod
    def _view(cls, x: np.ndarray, w: np.ndarray) -> "NodeVector":
        tv = super()._view(x, w)
        tv._known = None
        tv._size = None
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

    def reset(self, *args, **kwargs) -> "NodeVector":
        self._known = None
        self._size = None
        super().reset(*args, **kwargs)
        return self

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
        _estimates_into(self._x[:m], self._w[:m], out[:m])
        return out

    @staticmethod
    def estimates_matrix(vectors: Sequence[TripletVector], n: int) -> np.ndarray:
        """Stacked :meth:`estimates_array` of many vectors, one gather."""
        m = len(vectors)
        X = np.zeros((m, n))
        W = np.zeros((m, n))
        for i, tv in enumerate(vectors):
            k = min(n, tv._x.shape[0])
            X[i, :k] = tv._x[:k]
            W[i, :k] = tv._w[:k]
        return _estimates_into(X, W, np.empty((m, n)))

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


class NodeStore(PopulationStore):
    """A store whose rows are :class:`NodeVector` views."""

    __slots__ = ()

    def row(self, node: int) -> NodeVector:
        tv = self._views[node]
        if tv is None:
            tv = self._views[node] = NodeVector._view(self.x[node], self.w[node])
        assert isinstance(tv, NodeVector)
        return tv
