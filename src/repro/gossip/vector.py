"""Algorithm 2 node state: the reputation vector as ``<x, id, w>`` triplets.

During an aggregation cycle every node carries the *entire* global
reputation vector in gossiped form — one triplet per peer id.  A gossip
step halves the whole vector, sends one half to a random partner, keeps
the other, and merges arriving halves component-wise (Algorithm 2 lines
12-19).

The message engine keeps a whole population in one
:class:`PopulationStore`: node ``i``'s vector is row ``i`` of an
engine-owned ``(n, n)`` x/w array pair, with ``x`` and ``w`` mass for
peer ``j`` at column ``j``.  The *logical* sparsity of the paper's
payload is preserved — an id is "known" exactly when it carries any
mass, and a message's size counts the known ids it carries, not array
capacity.

Every store operation is a whole-store array kernel: cycle
initialization scatters the trust matrix's CSR into the participants'
rows, a gossip round is one halving pass over the senders' rows and one
``csc_matvecs`` scatter-add of the arriving halves, the estimates of a
set of rows are one divide, and held mass and the sanitizer's checks
are row reductions — no per-node Python loop anywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.gossip.base import _csc_matvecs

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import InvariantSanitizer

__all__ = ["PopulationStore", "EstimateRows"]


# hot: population estimates — one divide into the caller's buffer
def _estimates_into(X: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x / w``: ``inf`` where only ``x > 0``, ``nan`` where both are 0.

    One IEEE divide gives exactly that, because mass is nonnegative.
    The in-place ``abs`` changes no estimate (they are all ``>= 0``); it
    clears the sign bit x86 sets on the NaN of ``0 / 0``, so an unknown
    id reads as the same bits as ``np.nan``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(X, W, out=out)
    return np.abs(out, out=out)


class EstimateRows:
    """The estimate matrix of a set of store rows, evaluated a block at a time.

    ``view[sel]`` (``sel`` a slice or a list of positions) is
    ``estimates(rows)[sel]``, bitwise: it gathers only the selected
    rows' ``x | w`` from the array it reads and divides them
    (:func:`_estimates_into`).  The per-window convergence check reads a
    few rows of most windows' matrices, so evaluating whole matrices up
    front would mostly go to waste.

    A view keeps the slices it evaluated (read-only arrays): read one
    over the live store only while the store stands still.
    """

    __slots__ = ("_xw", "_rows", "_blocks")

    def __init__(
        self,
        xw: np.ndarray,
        rows: np.ndarray,
        blocks: Optional[Dict[Tuple[Optional[int], ...], np.ndarray]] = None,
    ) -> None:
        self._xw = xw
        #: ``None`` when ``rows`` is every row: a slice then reads a view
        self._rows: Optional[np.ndarray] = None if len(rows) == len(xw) else rows
        #: the slices evaluated so far, by ``(start, stop, step)``
        self._blocks: Dict[Tuple[Optional[int], ...], np.ndarray] = (
            {} if blocks is None else blocks
        )

    def __getitem__(self, sel: Union[slice, Sequence[int]]) -> np.ndarray:
        key = (sel.start, sel.stop, sel.step) if isinstance(sel, slice) else None
        block = None if key is None else self._blocks.get(key)
        if block is None:
            xw = self._xw[sel] if self._rows is None else self._xw[self._rows[sel]]
            n = xw.shape[1] // 2
            block = _estimates_into(xw[:, :n], xw[:, n:], np.empty((xw.shape[0], n)))
            if key is not None:
                self._blocks[key] = block
        return block


class PopulationStore:
    """A population's triplet vectors as the rows of one ``(n, n)`` x/w pair.

    Node ``i``'s vector is row ``i``; ``x`` and ``w`` are the two halves
    of one ``(n, 2n)`` array ``xw``, so a row op moves both at once.
    Every operation is one pass over a set of rows instead of one
    Python call per node:

    * :meth:`reset` — cycle initialization of the participants' rows
      from the trust matrix's CSR;
    * :meth:`halve` — every sender keeps half its row, and the sent
      halves land in a *fresh* outbox (in flight until delivered, so it
      cannot be reused next round); :meth:`halve_row` is the same for
      one sender;
    * :meth:`merge` — arriving outbox rows add into their receivers'
      rows in arrival order, as one scatter-add;
    * :meth:`estimates` — the estimate matrix of a set of rows;
      :meth:`estimate_rows` and :meth:`frozen_estimate_rows` the same
      matrix evaluated a block at a time, over the live store or over
      the store as it stood when frozen;
    * :meth:`mass` — the total held ``x + w`` of a set of rows, summed
      per row and accumulated in row order, bitwise equal to a loop
      that adds each row's ``sum x + sum w`` in turn;
    * :meth:`check_invariants` — the sanitizer's finite-mass and
      ``w >= 0`` checks over a set of rows.

    ``rows`` arguments are ascending node ids; ``None`` (or all ``n``
    ids) means every row.  An engine owns its store for its lifetime,
    so rows are recycled across cycles instead of reallocated.

    ``xw``/``x``/``w`` may move to another buffer when every row halves
    (see :meth:`frozen_estimate_rows`): read them afresh after a store
    call, and change the store through its methods while a frozen view
    is in use.
    """

    __slots__ = ("n", "xw", "x", "w", "_cptr", "_ones", "_spare", "_pending")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValidationError(f"a population store needs n >= 1, got {n}")
        if _csc_matvecs is None:
            raise ValidationError(  # pragma: no cover - very old scipy
                "the population store needs scipy's csc_matvecs kernel"
            )
        self.n = int(n)
        #: row i is node i's ``x | w``: one row op moves both halves
        self.xw = np.zeros((self.n, 2 * self.n))
        self.x = self.xw[:, : self.n]
        self.w = self.xw[:, self.n :]
        #: a merge's CSC column pointer and values: one unit entry per arrival
        self._cptr = np.arange(self.n + 1, dtype=np.int64)
        self._ones = np.ones(self.n)
        #: a second ``xw``-shaped buffer, for frozen store states
        self._spare: Optional[np.ndarray] = None
        #: the frozen view that still reads ``xw`` (see frozen_estimate_rows)
        self._pending: Optional[EstimateRows] = None

    def _spare_buffer(self) -> np.ndarray:
        if self._spare is None:
            self._spare = np.empty_like(self.xw)
        return self._spare

    def _settle(self) -> None:
        """Before ``xw`` changes in place: a pending frozen view moves to a copy."""
        view = self._pending
        if view is not None:
            self._pending = None
            spare = self._spare_buffer()
            np.copyto(spare, self.xw)
            view._xw = spare

    def reset(self, rows: np.ndarray, S: sparse.csr_matrix, v: np.ndarray) -> None:
        """Cycle initialization (Algorithm 2 lines 5-11) of ``rows``, in place.

        Row ``i`` becomes ``x_j = s_ij * v_i`` for every ``j`` with
        ``s_ij > 0`` (no ``x`` at all when ``v_i <= 0``) and ``w_j = 1``
        only for ``j == i``; rows outside ``rows`` are untouched.  A
        negative score in one of ``rows`` raises
        :class:`~repro.errors.ValidationError`.
        """
        self._settle()
        self.xw[rows] = 0.0
        owner = np.repeat(np.arange(self.n), np.diff(S.indptr))
        mine = np.zeros(self.n, dtype=bool)
        mine[rows] = True
        take = mine[owner]
        scores = S.data
        negative = np.flatnonzero(take & (scores < 0))
        if negative.size:
            k = negative[0]
            raise ValidationError(
                f"negative local score s[{owner[k]},{S.indices[k]}]={scores[k]}"
            )
        take &= (scores > 0) & (v[owner] > 0)
        self.x[owner[take], S.indices[take]] = scores[take] * v[owner[take]]
        self.w[rows, rows] = 1.0

    def _select(self, rows: Optional[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
        if rows is None or len(rows) == self.n:
            return self.x, self.w
        idx = np.asarray(rows, dtype=np.intp)
        return self.x[idx], self.w[idx]

    def halve(self, rows: Sequence[int]) -> Tuple[np.ndarray, int]:
        """Halve ``rows`` in place; return the outbox of the halves they send.

        Returns ``(outbox, known)``: row ``k`` of the fresh
        ``(len(rows), 2n)`` outbox is the half node ``rows[k]`` sends, in
        the store's ``x | w`` layout, and ``known`` the number of ids the
        halves carry mass for, summed over the outbox (one ``>`` over the
        contiguous outbox, one ``|`` of its two halves, one flat count).
        When every row halves while a frozen view reads ``xw``, the halves
        go to the spare buffer and the store moves there, leaving the old
        buffer to the view.
        """
        n = self.n
        if len(rows) == n:
            if self._pending is None:
                self.xw *= 0.5
            else:
                self._pending = None
                frozen = self.xw
                self.xw = np.multiply(frozen, 0.5, out=self._spare_buffer())
                self.x, self.w = self.xw[:, :n], self.xw[:, n:]
                self._spare = frozen
            out = self.xw.copy()
        else:
            self._settle()
            idx = np.asarray(rows, dtype=np.intp)
            out = self.xw[idx]
            out *= 0.5
            self.xw[idx] = out
        positive = out > 0
        return out, int(np.count_nonzero(positive[:, :n] | positive[:, n:]))

    def halve_row(self, node: int) -> Tuple[np.ndarray, int]:
        """Halve row ``node`` in place; return the half it sends and its size.

        The one-sender :meth:`halve`: the half is a fresh ``x | w`` row
        and the size the number of ids it carries mass for.
        """
        self._settle()
        row = self.xw[node]
        row *= 0.5
        half = row.copy()
        known = half > 0
        n = self.n
        return half, int(np.count_nonzero(known[:n] | known[n:]))

    # hot: merge — one csc_matvecs scatter-add, in arrival order
    def merge(self, dst: np.ndarray, outbox: np.ndarray, rows: np.ndarray) -> None:
        """Add ``outbox`` row ``rows[k]`` into store row ``dst[k]``, in order of ``k``.

        Bitwise the same as adding each arrival in turn.  The arrivals
        are the columns of a CSC matrix with one unit entry each, at row
        ``dst[k]`` (the sync engine's step kernel), and ``csc_matvecs``
        adds them column by column, so a row receiving several halves
        adds them in order of ``k``.  A merge takes at most ``n``
        arrivals (one round's batch); the C kernel checks no bounds, so
        the shapes and destination ids are checked here.
        """
        n = self.n
        dst = np.asarray(dst, dtype=np.int64)
        m = dst.size
        if m == 0:
            return
        if m > n or len(rows) != m or outbox.shape[1:] != (2 * n,):
            raise ValidationError(
                f"a merge takes at most n={n} arrivals of 2n={2 * n} entries, "
                f"got {m} destinations, {len(rows)} rows of {outbox.shape[1:]}"
            )
        # a negative id wraps to a huge unsigned one: one max checks both ends
        if dst.view(np.uint64).max() >= n:
            raise ValidationError(f"a merge destination is outside [0, {n})")
        self._settle()
        _csc_matvecs(
            n, m, 2 * n, self._cptr[: m + 1], dst, self._ones[:m],
            np.asarray(outbox[rows], dtype=np.float64).ravel(), self.xw.ravel(),
        )

    def estimates(self, rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """The fresh ``(len(rows), n)`` estimate matrix of ``rows``.

        Row ``k`` holds node ``rows[k]``'s estimates ``x_j / w_j``:
        ``inf`` where only ``x_j > 0`` and ``nan`` where the node knows
        nothing of ``j``.
        """
        X, W = self._select(rows)
        return _estimates_into(X, W, np.empty((X.shape[0], self.n)))

    def estimate_rows(self, rows: np.ndarray) -> EstimateRows:
        """The estimates of ``rows`` over the live store, evaluated when read.

        The view reads the store's current buffer and keeps the blocks
        it read, so read it only until the store next changes.
        """
        return EstimateRows(self.xw, rows)

    def frozen_estimate_rows(
        self, rows: np.ndarray, live: Optional[EstimateRows] = None
    ) -> EstimateRows:
        """The estimates of ``rows`` as the store holds them now, evaluated when read.

        The view reads ``xw`` itself until the store next changes.  Then
        a whole-store :meth:`halve` moves the store to a spare buffer and
        leaves the old one to the view (a round's halving costs no extra
        pass), and any other change copies ``xw`` to the spare buffer for
        the view first.  There is one spare buffer, so the view lasts
        until the store changes after the next call.  The slices that
        ``live``, an :meth:`estimate_rows` view of the same rows read
        since the store last changed, evaluated carry over.
        """
        view = EstimateRows(self.xw, rows, None if live is None else dict(live._blocks))
        self._pending = view
        return view

    def rescale(self, rows: np.ndarray, factor: float) -> None:
        """Multiply the mass of ``rows`` by ``factor``, in place."""
        self._settle()
        self.xw[rows] *= factor

    def merge_row(self, node: int, half: np.ndarray) -> None:
        """Add one arriving ``x | w`` half into row ``node``."""
        self._settle()
        self.xw[node] += half

    # hot: held mass — two row reductions, accumulated in row order
    def mass(self, rows: Optional[Sequence[int]] = None) -> float:
        """Total ``sum x + sum w`` held by ``rows`` (conservation checks)."""
        totals = self.x.sum(axis=1)
        totals += self.w.sum(axis=1)
        if rows is not None and len(rows) != self.n:
            totals = totals[np.asarray(rows, dtype=np.intp)]
        return float(np.add.accumulate(totals)[-1]) if totals.size else 0.0

    def check_invariants(
        self,
        sanitizer: "InvariantSanitizer",
        rows: np.ndarray,
        *,
        step: Optional[int] = None,
    ) -> None:
        """The sanitizer's per-node checks over ``rows``: finite mass, ``w >= 0``.

        Rows outside ``rows`` read as zero, so a violation's ``node`` is
        the offending node id.  Raises
        :class:`~repro.errors.InvariantViolation` on breach.
        """
        held = np.zeros((self.n, 1), dtype=bool)
        held[rows] = True
        xw = np.where(held, self.xw, 0.0)
        x, w = xw[:, : self.n], xw[:, self.n :]
        sanitizer.check_finite("x-mass", x, step=step)
        sanitizer.check_finite("w-mass", w, step=step)
        sanitizer.check_nonnegative("w-mass", w, step=step)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PopulationStore(n={self.n})"
