"""Algorithm 2 node state: the reputation vector as ``<x, id, w>`` triplets.

During an aggregation cycle every node carries the *entire* global
reputation vector in gossiped form — one triplet per peer id.  A gossip
step halves the whole vector, sends one half to a random partner, keeps
the other, and merges arriving halves component-wise (Algorithm 2 lines
12-19).  :class:`TripletVector` is one node's vector; the vectorized
engine flattens the same state into arrays.

The triplet store is id-indexed NumPy arrays rather than dicts: ``x``
and ``w`` mass live at position ``j`` for peer ``j``, so halve/merge are
single vectorized passes.  The *logical* sparsity of the paper's
payload is preserved — an id is "known" exactly when it carries any
mass, and a message's size counts the known ids it carries, not array
capacity.

The message engine keeps a whole population in one
:class:`PopulationStore`: node ``i``'s vector is row ``i`` of an
engine-owned ``(n, n)`` x/w array pair, served as a cached
:class:`TripletVector` view.  A gossip round is then one halving pass
over the senders' rows and one layered add of the arriving halves, and
the per-window estimate matrix and held mass are row reductions over
the store instead of per-node Python loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import InvariantSanitizer

__all__ = ["TripletVector", "PopulationStore", "EstimatesWorkspace"]


class EstimatesWorkspace:
    """Two alternating output slots for per-round estimate matrices.

    The message-level engines evaluate the population estimate matrix
    every round; callers (the per-round convergence check) hold on to
    the *previous* round's matrix while the next one is computed, so
    consecutive calls must never hand back the same buffer.  Matrices
    that outlive two calls (e.g. result fields) must be copied by the
    caller.

    Slots grow capacity-style and are served as ``[:m, :n]`` views.
    """

    __slots__ = ("_outs", "_flip")

    def __init__(self) -> None:
        self._outs: List[Optional[np.ndarray]] = [None, None]
        self._flip = 0

    def slot(self, m: int, n: int) -> np.ndarray:
        """The next ``(m, n)`` output view; consecutive calls alternate slots."""
        buf = self._outs[self._flip]
        if buf is None or buf.shape[0] < m or buf.shape[1] < n:
            rows = m if buf is None else max(m, buf.shape[0])
            cols = n if buf is None else max(n, buf.shape[1])
            buf = self._outs[self._flip] = np.empty((rows, cols))
        self._flip ^= 1
        return buf[:m, :n]


# hot: population estimates — three ufunc passes into the caller's buffer
def _estimates_into(X: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x / w`` where ``w > 0``, ``inf`` where only ``x > 0``, else ``nan``."""
    out.fill(np.nan)
    pos = W > 0
    np.divide(X, W, out=out, where=pos)
    out[~pos & (X > 0)] = np.inf
    return out


class TripletVector:
    """A node's gossiped reputation vector: ``x``/``w`` mass per peer id.

    An id is *known* to a node exactly when it carries any mass there;
    entries a node has never heard about are zero.  The arrays grow on
    demand when :meth:`reset` names a higher id than they hold — except
    in a *view* (a :class:`PopulationStore` row), whose capacity is
    fixed: an id beyond it raises :class:`~repro.errors.ValidationError`.
    The gossip operations themselves (halve, send, merge) run on the
    store's rows.
    """

    __slots__ = ("_x", "_w", "_fixed")

    def __init__(self, capacity: int = 0) -> None:
        self._x = np.zeros(capacity)
        self._w = np.zeros(capacity)
        #: the arrays are views into someone else's buffer: never regrow
        self._fixed = False

    @classmethod
    def _view(cls, x: np.ndarray, w: np.ndarray) -> "TripletVector":
        """A fixed-capacity vector over existing ``x``/``w`` rows (no copy)."""
        tv = cls.__new__(cls)
        tv._x = x
        tv._w = w
        tv._fixed = True
        return tv

    def reset(
        self,
        owner: int,
        local_scores: Mapping[int, float],
        prior: Mapping[int, float],
        *,
        n: Optional[int] = None,
    ) -> "TripletVector":
        """Cycle initialization (Algorithm 2 lines 5-11) for node ``owner``, in place.

        ``x_j <- s_{owner,j} * v_owner(t-1)`` for every peer ``owner``
        has rated, and ``w_j <- 1`` only for ``j == owner``.  The
        existing arrays are zeroed and refilled (growing only if
        capacity is short to hold ``n``, ``owner`` and every rated id),
        so the message engine re-initializes its :class:`PopulationStore`
        rows across cycles without reallocating.  A view cannot grow: an
        ``owner`` or rated id at or beyond its capacity raises
        :class:`~repro.errors.ValidationError`.

        Parameters
        ----------
        owner:
            The node this vector lives on.
        local_scores:
            Sparse normalized row ``{j: s_owner_j}``.
        prior:
            Previous-cycle reputation estimates ``{i: v_i(t-1)}``; only
            ``prior[owner]`` is needed here.
        n:
            Optional population size to size the arrays for.
        """
        cap = int(n) if n is not None else 0
        cap = max(cap, owner + 1, *(int(j) + 1 for j in local_scores), 1)
        self._grow_to(cap)
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

    def check_invariants(
        self,
        sanitizer: "InvariantSanitizer",
        *,
        owner: Optional[int] = None,
        step: Optional[int] = None,
    ) -> None:
        """Run the per-node sanitizer checks: finite mass, ``w >= 0``.

        Called by the message engine at its convergence-check cadence
        when a sanitizer is armed; raises
        :class:`~repro.errors.InvariantViolation` on breach.
        """
        who = f"node {owner}" if owner is not None else "node"
        sanitizer.check_finite(f"{who} x-mass", self._x, step=step)
        sanitizer.check_finite(f"{who} w-mass", self._w, step=step)
        sanitizer.check_nonnegative(f"{who} w-mass", self._w, step=step)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TripletVector(capacity={self._x.shape[0]})"


class PopulationStore:
    """A population's triplet vectors as the rows of one ``(n, n)`` x/w pair.

    Node ``i``'s vector is row ``i``; ``x`` and ``w`` are the two halves
    of one ``(n, 2n)`` array ``xw``, so a row op moves both at once.
    :meth:`row` serves it as a cached :class:`TripletVector` view, so
    cycle initialization (``reset``) and the sanitizer's per-node checks
    read and write the store in place.  The population-wide work of a
    gossip round is one pass over the rows instead of one Python call
    per node:

    * :meth:`halve` — every sender keeps half its row, and the sent
      halves land in a *fresh* outbox (in flight until delivered, so it
      cannot be reused next round); :meth:`halve_row` is the same for
      one sender;
    * :meth:`merge` — arriving outbox rows add into their receivers'
      rows in arrival order;
    * :meth:`estimates` — the estimate matrix of a set of rows;
    * :meth:`mass` — the total held ``x + w`` of a set of rows, summed
      per row and accumulated in row order, bitwise equal to a loop
      that adds each row's ``sum x + sum w`` in turn.

    ``rows`` arguments are ascending node ids; ``None`` (or all ``n``
    ids) means every row.  An engine owns its store for its lifetime,
    so rows are recycled across cycles instead of reallocated.
    """

    __slots__ = ("n", "xw", "x", "w", "_views")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValidationError(f"a population store needs n >= 1, got {n}")
        self.n = int(n)
        #: row i is node i's ``x | w``: one row op moves both halves
        self.xw = np.zeros((self.n, 2 * self.n))
        self.x = self.xw[:, : self.n]
        self.w = self.xw[:, self.n :]
        self._views: List[Optional[TripletVector]] = [None] * self.n

    def row(self, node: int) -> TripletVector:
        """Node ``node``'s vector: a fixed-capacity view of its row (cached)."""
        tv = self._views[node]
        if tv is None:
            tv = self._views[node] = TripletVector._view(self.x[node], self.w[node])
        return tv

    def _select(self, rows: Optional[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
        if rows is None or len(rows) == self.n:
            return self.x, self.w
        idx = np.asarray(rows, dtype=np.intp)
        return self.x[idx], self.w[idx]

    def halve(self, rows: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Halve ``rows`` in place; return the outbox of the halves they send.

        Returns ``(outbox, sizes)``: row ``k`` of the fresh
        ``(len(rows), 2n)`` outbox is the half node ``rows[k]`` sends, in
        the store's ``x | w`` layout, and ``sizes[k]`` the number of ids
        it carries mass for (one ``count_nonzero`` over the outbox).
        """
        idx = np.asarray(rows, dtype=np.intp)
        out = self.xw[idx]
        out *= 0.5
        self.xw[idx] = out
        n = self.n
        return out, np.count_nonzero((out[:, :n] > 0) | (out[:, n:] > 0), axis=1)

    def halve_row(self, node: int) -> Tuple[np.ndarray, int]:
        """Halve row ``node`` in place; return the half it sends and its size.

        The one-sender :meth:`halve`: the half is a fresh ``x | w`` row
        and the size the number of ids it carries mass for.
        """
        row = self.xw[node]
        row *= 0.5
        half = row.copy()
        known = half > 0
        n = self.n
        return half, int(np.count_nonzero(known[:n] | known[n:]))

    def merge(self, dst: np.ndarray, outbox: np.ndarray, rows: np.ndarray) -> None:
        """Add ``outbox`` row ``rows[k]`` into store row ``dst[k]``, in order of ``k``.

        Bitwise the same as adding each arrival in turn: a row
        receiving several halves adds them in order of ``k``.  The
        arrivals go in layers by per-destination rank (every first
        arrival, then every second, ...), so each layer's destinations
        are distinct and one fancy-indexed add applies it.
        """
        if dst.size == 0:
            return
        order = np.argsort(dst, kind="stable")
        grouped = dst[order]
        starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
        lengths = np.diff(np.append(starts, grouped.size))
        rank = np.empty(dst.size, dtype=np.intp)
        rank[order] = np.arange(grouped.size) - np.repeat(starts, lengths)
        for layer in range(int(lengths.max())):
            at = rank == layer
            self.xw[dst[at]] += outbox[rows[at]]

    def estimates(
        self,
        rows: Optional[Sequence[int]] = None,
        *,
        workspace: Optional[EstimatesWorkspace] = None,
    ) -> np.ndarray:
        """The ``(len(rows), n)`` estimate matrix of ``rows``.

        Row ``k`` holds node ``rows[k]``'s estimates ``x_j / w_j``:
        ``inf`` where only ``x_j > 0`` and ``nan`` where the node knows
        nothing of ``j``.  With
        a ``workspace`` the result lands in its alternating output slot
        (see :class:`EstimatesWorkspace`); without one it is fresh.
        """
        X, W = self._select(rows)
        m = X.shape[0]
        out = np.empty((m, self.n)) if workspace is None else workspace.slot(m, self.n)
        return _estimates_into(X, W, out)

    # hot: held mass — two row reductions, accumulated in row order
    def mass(self, rows: Optional[Sequence[int]] = None) -> float:
        """Total ``sum x + sum w`` held by ``rows`` (conservation checks)."""
        totals = self.x.sum(axis=1)
        totals += self.w.sum(axis=1)
        if rows is not None and len(rows) != self.n:
            totals = totals[np.asarray(rows, dtype=np.intp)]
        return float(np.add.accumulate(totals)[-1]) if totals.size else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"PopulationStore(n={self.n})"
