"""Synchronous vectorized gossip engine.

Runs one aggregation cycle of Algorithm 2 with all nodes' state held in
NumPy arrays.  The key structural fact it exploits: in Algorithm 2 a
node sends its *whole* halved vector to one partner per step, so every
vector component ``j`` evolves under the **same** random mixing matrix
``M(k)``.  The full per-node state is therefore

    X(k) = M(k) ... M(1) @ X0        with  X0 = diag(v) @ S
    W(k) = M(k) ... M(1) @ I

and one gossip step over all nodes and all components is a single
row-scatter-add — no Python loops.

Two memory modes:

* ``full`` — X and W are (n, n); exact per the protocol.  Default for
  n <= 1500 (Table 3's n = 1000 runs here).
* ``probe`` — only ``p`` probe columns of X and W are tracked, (n, p)
  arrays.  Because all columns share the mixing matrix, step counts and
  gossip-error samples measured on the probes are representative; the
  next-cycle vector is then computed exactly (documented substitution —
  used for the Fig. 3 sweeps at n = 4000 and the large-n tiers, where
  full mode would need hundreds of MB or more).

One step loop serves both modes, over dense slot arrays from step 0:
every node halves its whole vector each step, so within ~log2(n) steps
every node holds mass for every column, and the epsilon criterion
cannot fire before W is positive everywhere — a converged cycle is
dense for most of its steps.  At cycle start X0 and W0 are scattered
into three ``(n, width)`` slot arrays per column tile (current X,
current W, step output), allocated once per workspace and reused across
cycles.  A step is sort-free: the output starts as the halved kept
share (``np.multiply(X, 0.5, out=Y)``), then ``csc_matvecs`` scatters
every sender's half into its target's row, with ``A`` in CSC form as
``(arange(n + 1), targets)`` — one entry per sender column, so there is
no sort, no ``indptr`` and no mixing layout at all.  Senders are
visited in ascending order, so each receiver sums its kept half first
and then its inbound halves by ascending sender.

Columns are independent, so any column split and any loop order over
(column tile, step) computes bitwise the same values.  The loop runs
one **check window** (the steps up to the next convergence check, at
most ``check_every``) at a time, and each stepping thread owns one
contiguous **column block** (:func:`step_threads` blocks: one per
usable core, on a process-wide pool of ``cores - 1`` threads plus the
calling thread).  Each block is cut into **column tiles** whose three
slots fit ``_TILE_BYTES`` (a share of a core's L2), as long as every
tile keeps ``_MIN_TILE_COLUMNS`` columns (:func:`_block_tiles`; any
n >= 10^5 probe cycle keeps one tile per block).  Per window the
calling thread draws the window's partner targets.  Then one task per
block takes its tiles in turn: each tile runs the whole window back to
back from cache, then its share of the convergence check — its
estimates ``X / W`` into its persistent ``prev`` and the residual
maximum of every row tile of ``_TILE_ELEMENTS / p`` rows.  The scatters
and divides release the GIL, so the blocks step on separate cores.  The
calling thread then combines the maxima in row-tile order, so the worst
residual, the fine-phase trigger and the stop step do not depend on the
block or tile count.

With probe-mode column selection the working set is ``4 * n * p``
elements (three slots plus ``prev`` per tile) regardless of n — ~0.2 GiB
at n = 10^5, p = 64, float64; ``dtype="float32"`` halves it for the
n = 10^6 tier.

Partner draws come from one RNG stream (a Generator fills a ``(k, n)``
block in the same element order as ``k`` successive size-``n`` draws),
so every block count walks the same mixing-matrix sequence and stops
on the same step.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.analysis.sanitizer import InvariantSanitizer
from repro.errors import ConvergenceError, ValidationError
from repro.gossip.base import (
    CycleEngine,
    GossipCycleResult,
    TrustInput,
    _csc_matvecs,
    coerce_csr,
)
from repro.gossip.convergence import REL_FLOOR, average_relative_error
from repro.metrics.telemetry import Stopwatch
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range, check_vector

__all__ = [
    "GossipCycleResult",
    "SynchronousGossipEngine",
    "SparseWorkspace",
    "step_threads",
]

#: engine dtype names accepted by ``dtype=`` (the buffer precision)
DTYPE_NAMES = ("float64", "float32")

#: above this node count, auto mode switches from full to probe
_FULL_MODE_LIMIT = 1500

#: once a coarse check sees a residual below _FINE_FACTOR * epsilon the
#: step loop switches to per-step checks (Algorithm 1's granularity)
_FINE_FACTOR = 8.0

#: elements per estimate/residual row tile (~1 MiB of float64): the
#: check's row tiles are ``_TILE_ELEMENTS // p`` rows high (results do
#: not depend on it)
_TILE_ELEMENTS = 1 << 17

#: fewest columns per stepping thread: a core steps a block of its own
#: only while every block keeps this many (results do not depend on it)
_MIN_SHARD_COLUMNS = 16

#: fewest state entries (``n * p / threads``) per stepping thread: ~0.1 ms
#: of dense stepping, several times a pool round trip, so tiny cycles
#: stay on the calling thread (results do not depend on it)
_MIN_SHARD_ELEMENTS = 1 << 16

#: bytes of one column tile's three ``(n, w)`` slots: a tile this size
#: steps a whole check window inside one core's L2 (2 MiB per core on
#: the reference VM) instead of streaming its slots through L3 every
#: step (results do not depend on it)
_TILE_BYTES = 1 << 20

#: fewest columns per column tile: a block is cut into tiles only while
#: every tile keeps this many, below which per-call overhead outweighs
#: the cache gain (results do not depend on it)
_MIN_TILE_COLUMNS = 32


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where known."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity API


def step_threads(n: int, p: int) -> int:
    """The threads, the calling one included, that step an ``(n, p)`` cycle.

    Each steps one contiguous column block.  One per usable core while
    every thread keeps at least
    ``_MIN_SHARD_COLUMNS`` columns and ``_MIN_SHARD_ELEMENTS`` state
    entries.
    """
    return max(
        1,
        min(_usable_cores(), p // _MIN_SHARD_COLUMNS, n * p // _MIN_SHARD_ELEMENTS),
    )


def _block_tiles(n: int, width: int, itemsize: int) -> int:
    """The column tiles one ``width``-column block of ``n`` rows is cut into.

    As many as keep each tile's three slots within ``_TILE_BYTES``, but
    only while every tile keeps ``_MIN_TILE_COLUMNS`` columns: a block
    whose budget width is narrower than that (any n >= 10^5 probe
    cycle) stays one tile.
    """
    fit = _TILE_BYTES // (3 * n * itemsize)
    if fit < _MIN_TILE_COLUMNS:
        return 1
    return max(1, min(-(-width // fit), width // _MIN_TILE_COLUMNS))


_pool: Optional[ThreadPoolExecutor] = None
_pool_key = (0, 0)
_pool_lock = threading.Lock()


def _step_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide block-step pool of ``workers`` threads.

    Created lazily, and again when the worker count or the process
    changes: an executor inherited by a forked child (a sweep worker)
    never runs what is submitted to it.  A replaced pool is dropped,
    not shut down, so an engine still stepping on it in another thread
    finishes; its idle threads exit once it is collected.
    """
    global _pool, _pool_key
    key = (os.getpid(), workers)
    with _pool_lock:
        if _pool is None or _pool_key != key:
            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="gossip-shard"
            )
            _pool_key = key
        return _pool


def _unlock_pool_after_fork() -> None:
    """A forked child gets a fresh lock: a parent thread may have held it."""
    global _pool_lock
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; there is no fork elsewhere
    os.register_at_fork(after_in_child=_unlock_pool_after_fork)


class _TargetStream:
    """Batched partner draws: one ``integers`` call per ``batch`` steps.

    Drawing targets in ``(batch, n)`` blocks amortizes the RNG call
    without changing the consumed stream: a Generator fills a C-ordered
    block in the same element order as ``batch`` successive size-``n``
    draws, so the per-step target sequence is invariant in the batch
    size.
    """

    __slots__ = ("_rng", "_n", "_batch", "_ids", "_block", "_row")

    def __init__(self, rng: np.random.Generator, n: int, batch: int) -> None:
        self._rng = rng
        self._n = n
        self._batch = max(1, int(batch))
        self._ids = np.arange(n)
        self._block: np.ndarray | None = None
        self._row = 0

    def next(self) -> np.ndarray:
        if self._block is None or self._row >= self._block.shape[0]:
            block = self._rng.integers(0, self._n - 1, size=(self._batch, self._n))
            block += block >= self._ids  # uniform over others, never self
            self._block = block
            self._row = 0
        row = self._block[self._row]
        self._row += 1
        return row


class _CheckScratch(NamedTuple):
    """One block's convergence-check buffers (flat, reshaped per use)."""

    #: estimates
    x: np.ndarray
    #: residual numerators
    num: np.ndarray
    #: residual denominators
    den: np.ndarray


class SparseWorkspace:
    """The engine's dense slot arrays and check buffers, one shape.

    The ``p`` probe columns are split into ``blocks`` contiguous,
    near-equal column ranges (``bounds[i] : bounds[i + 1]``), one per
    stepping thread (block 0 on the calling thread), and each block
    into near-equal **column tiles** (:func:`_block_tiles`: as many as
    keep a tile's three slots within ``_TILE_BYTES``, only while every
    tile keeps ``_MIN_TILE_COLUMNS`` columns).  ``tile_bounds`` holds
    the ``tiles + 1`` column bounds of all tiles in column order and
    ``block_tiles[b]`` the tile indices of block ``b``.  Because the
    mixing matrix acts on rows, a step over a column subset computes
    bitwise the same values as the same columns of the unsplit step.
    Every tile owns three ``(n, width)`` slot arrays in ``dense``
    (current X, current W, step output — the output slot is always the
    one whose contents just died) and its own contiguous ``(n, width)``
    ``prev``, the previous estimate of the convergence check, all
    allocated here and reused across cycles; each cycle scatters its X0
    and W0 into the slots.

    The dense step's ``A`` is in CSC form with the constant column
    pointer ``cptr = arange(n + 1)`` and the constant value vector
    ``half`` (0.5 per sender).  The check runs over ``blk``-row tiles:
    each block's tiles share the block's :class:`_CheckScratch` of
    ``blk * width`` elements (a narrower tile checks several row tiles
    per call), and every tile leaves its row-tile residual maxima in its
    ``tile_max`` row (``w_pos`` flags the tiles whose W is positive
    everywhere).  The workspace therefore holds ``4 * n * p`` state
    elements plus ``O(n + blk * p)`` regardless of how long the cycle
    runs.  ``blk`` derives from the *full* probe width ``p`` whatever
    the block and tile counts, so every split walks identical row tiles.
    """

    __slots__ = (
        "n", "p", "dtype", "blocks", "bounds", "tiles", "tile_bounds",
        "block_tiles", "dense", "prev", "w_pos", "half", "cptr", "blk",
        "tile_max", "scratch", "valid",
    )

    def __init__(
        self,
        n: int,
        p: int,
        dtype: "np.dtype | type" = np.float64,
        threads: int = 1,
    ) -> None:
        self.n = int(n)
        self.p = int(p)
        self.dtype = np.dtype(dtype)
        self.blocks = max(1, min(int(threads), self.p))
        self.bounds = tuple(
            self.p * i // self.blocks for i in range(self.blocks + 1)
        )
        tile_bounds = [0]
        block_tiles = []
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            k = _block_tiles(self.n, hi - lo, self.dtype.itemsize)
            first = len(tile_bounds) - 1
            tile_bounds += [lo + (hi - lo) * (i + 1) // k for i in range(k)]
            block_tiles.append(range(first, first + k))
        self.tile_bounds = tuple(tile_bounds)
        self.block_tiles = tuple(block_tiles)
        self.tiles = len(tile_bounds) - 1
        widths = [hi - lo for lo, hi in zip(tile_bounds, tile_bounds[1:])]
        #: per-tile slot arrays [X, W, out] and previous estimates; pages
        #: are first touched when a cycle writes them
        self.dense = [
            [np.empty((self.n, w), self.dtype) for _ in range(3)] for w in widths
        ]
        self.prev = [np.empty((self.n, w), self.dtype) for w in widths]
        #: per-cycle flags: tile ``t``'s W was positive at a check
        #: (sticky: W's values stay positive once they are)
        self.w_pos: List[bool] = [False] * self.tiles
        self.half = np.full(self.n, 0.5, self.dtype)
        self.cptr = np.arange(self.n + 1, dtype=np.int64)
        self.blk = max(1, min(self.n, _TILE_ELEMENTS // max(self.p, 1)))
        self.tile_max = np.empty((self.tiles, -(-self.n // self.blk)), np.float64)
        self.scratch = tuple(
            _CheckScratch(
                x=np.empty(self.blk * (hi - lo), self.dtype),
                num=np.empty(self.blk * (hi - lo), self.dtype),
                den=np.empty(self.blk * (hi - lo), self.dtype),
            )
            for lo, hi in zip(self.bounds, self.bounds[1:])
        )
        self.valid = True

    def matches(
        self, n: int, p: int, dtype: "np.dtype | type", threads: int
    ) -> bool:
        """Whether these buffers serve the full shape tuple and are live."""
        return (
            self.valid
            and self.n == n
            and self.p == p
            and self.dtype == np.dtype(dtype)
            and self.blocks == max(1, min(int(threads), self.p))
        )

    def invalidate(self) -> None:
        """Mark the buffers dead and drop the slot arrays."""
        self.valid = False
        self.dense = []
        self.prev = []

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SparseWorkspace(n={self.n}, p={self.p}, "
            f"dtype={self.dtype.name}, blocks={self.blocks}, "
            f"tiles={self.tiles}, valid={self.valid})"
        )


class SynchronousGossipEngine(CycleEngine):
    """Vectorized executor of gossiped aggregation cycles.

    Parameters
    ----------
    n:
        Number of peers.
    epsilon:
        Gossip error threshold (Algorithm 1 line 14; Table 2: 1e-4).
    mode:
        ``"full"``, ``"probe"``, or ``"auto"`` (probe iff n > 1500).
    max_steps:
        Per-cycle gossip step budget; a cycle that exhausts it raises
        :class:`~repro.errors.ConvergenceError`.
    dtype:
        Buffer precision, ``"float64"`` (default) or ``"float32"``.
        float32 halves every workspace buffer; because each step only
        halves and adds positive masses the per-step rounding is
        ~machine epsilon, so a converged cycle's scores agree with
        float64 to roughly ``steps * eps32`` relative (~1e-5 at typical
        step counts — measured in the parity tests).  With an armed
        sanitizer the conservation tolerance is widened to 1e-4 for the
        same reason.
    rng:
        Partner-choice randomness.

    The ``p`` columns split into one contiguous column block per
    :func:`step_threads` thread: one per usable core while each keeps
    ``_MIN_SHARD_COLUMNS`` columns and ``_MIN_SHARD_ELEMENTS`` entries,
    on a process-wide pool of ``cores - 1`` threads plus the calling
    thread.  Each block is stepped in L2-sized column tiles
    (:func:`_block_tiles`).  Results are invariant in the block and
    tile counts: column subsets of a row-acting step are bitwise the
    same values, and the partner draws, the sanitizer and the
    combination of the check stay on the calling thread.
    """

    name = "sync"
    #: number of probe columns in probe mode (all n when n is smaller)
    probe_columns = 64
    #: steps before the epsilon criterion may fire (>= 2 avoids the
    #: vacuous all-masses-still-local state)
    min_steps = 2
    #: convergence-check cadence: the O(n*p) estimate/residual pass runs
    #: every ``check_every`` steps instead of every step.  The residual
    #: then measures the estimate change across ``check_every`` steps —
    #: a *stricter* reading of the epsilon criterion — so the result is
    #: invariant modulo step-count granularity while the per-step cost
    #: drops by nearly the full estimate-pass share.  Once a residual
    #: lands within ``_FINE_FACTOR`` of epsilon the loop drops to
    #: per-step checks, so the finish line is resolved at Algorithm 1's
    #: per-step granularity and the cadence never overshoots the stop
    #: step by more than the coarse phase.
    check_every = 8

    def __init__(
        self,
        n: int,
        *,
        epsilon: float = 1e-4,
        mode: str = "auto",
        max_steps: int = 5_000,
        dtype: str = "float64",
        rng: SeedLike = None,
    ) -> None:
        if n < 2:
            raise ValidationError(f"gossip needs n >= 2 nodes, got {n}")
        if mode not in ("auto", "full", "probe"):
            raise ValidationError(f"unknown mode {mode!r}")
        if dtype not in DTYPE_NAMES:
            raise ValidationError(
                f"unknown dtype {dtype!r}; known: {', '.join(DTYPE_NAMES)}"
            )
        if _csc_matvecs is None:
            raise ValidationError(  # pragma: no cover - very old scipy
                "the sync engine needs scipy's csc_matvecs kernel"
            )
        check_in_range("epsilon", epsilon, low=0.0, low_inclusive=False)
        if max_steps < 1:
            raise ValidationError(f"max_steps must be >= 1, got {max_steps}")
        self.n = int(n)
        self.epsilon = float(epsilon)
        if mode != "auto":
            self.mode = mode
        else:
            self.mode = "probe" if n > _FULL_MODE_LIMIT else "full"
        self.max_steps = int(max_steps)
        self.dtype = dtype
        self._dtype = np.dtype(dtype)
        self._rng = as_generator(rng)
        self._sparse_workspace: SparseWorkspace | None = None

    # -- public API --------------------------------------------------------

    def run_cycle(self, S: TrustInput, v: np.ndarray) -> GossipCycleResult:
        """Gossip one aggregation cycle: estimate ``S^T v`` on every node.

        Raises
        ------
        ConvergenceError
            If the epsilon criterion is not met in ``max_steps``.
        """
        watch = Stopwatch()
        phases: Dict[str, float] = {}
        S_csr = coerce_csr(S, self.n)
        v = check_vector("v", v, size=self.n)
        phases["setup"] = watch.restart()
        exact = np.asarray(S_csr.T @ v).ravel()
        phases["oracle"] = watch.restart()
        if self.sanitizer is not None:
            self.sanitizer.begin_cycle(self.name)

        # X0[i, j] = v_i * s_ij; in probe mode the columns are selected
        # *before* the row scaling — the same single multiply per entry,
        # without ever materializing a full-S-sized scaled copy.
        if self.mode == "full":
            cols = np.arange(self.n)
            X0 = (sparse.diags(v) @ S_csr).tocsr()
            W0 = sparse.identity(self.n, format="csr", dtype=np.float64)
        else:
            cols = self._pick_probe_columns(v, exact)
            X0 = (sparse.diags(v) @ sparse.csr_matrix(S_csr[:, cols])).tocsr()
            W0 = sparse.csr_matrix(
                (np.ones(cols.size), (cols, np.arange(cols.size))),
                shape=(self.n, cols.size),
            )
        if self._dtype != np.float64:
            X0 = X0.astype(self._dtype)
            W0 = W0.astype(self._dtype)
        phases["setup"] += watch.restart()

        steps, estimates = self._gossip(X0, W0, phases=phases)
        # The interval covers workspace acquisition too; the step loop
        # reports that share separately as the "alloc" phase.
        phases["kernel"] = max(0.0, watch.restart() - phases.get("alloc", 0.0))

        col_means, disagreement = self._column_stats(estimates)

        if self.mode == "full":
            v_next = np.asarray(col_means, dtype=np.float64)
            gossip_error = average_relative_error(v_next, exact)
        else:
            gossip_error = average_relative_error(col_means, exact[cols])
            v_next = exact.copy()
        phases["estimate"] = watch.restart()

        return GossipCycleResult(
            v_next=v_next,
            exact=exact,
            steps=steps,
            gossip_error=gossip_error,
            converged=True,
            mode=self.mode,
            node_disagreement=disagreement,
            phase_times=phases,
        )

    @property
    def sparse_workspace(self) -> "SparseWorkspace | None":
        """The live :class:`SparseWorkspace`, if a cycle has run."""
        return self._sparse_workspace

    def invalidate_workspace(self) -> None:
        """Drop the cached buffers (the next cycle allocates fresh)."""
        if self._sparse_workspace is not None:
            self._sparse_workspace.invalidate()
        self._sparse_workspace = None

    def arm_sanitizer(
        self, sanitizer: Optional[InvariantSanitizer] = None
    ) -> InvariantSanitizer:
        """Arm invariant checks; float32 buffers widen the tolerance.

        float32 state accumulates O(steps * eps32) relative
        conservation drift from pure rounding, so the default 1e-9
        tolerance would flag correct runs; a fresh sanitizer is then
        built at 1e-4 instead.  An explicitly passed sanitizer is used
        as-is.
        """
        if sanitizer is None and self._dtype != np.float64:
            sanitizer = InvariantSanitizer(rel_tol=1e-4)
        return super().arm_sanitizer(sanitizer)

    def _acquire_sparse_workspace(self, p: int) -> SparseWorkspace:
        """The reusable buffer set for shape ``(n, p)``.

        Kept alive across cycles of the same shape: every buffer is
        write-before-read within a cycle, so reuse never shows in the
        results and a multi-cycle run pays the allocations once.
        """
        threads = step_threads(self.n, p)
        ws = self._sparse_workspace
        if ws is None or not ws.matches(self.n, p, self._dtype, threads):
            if ws is not None:
                ws.invalidate()
            ws = SparseWorkspace(self.n, p, self._dtype, threads)
            self._sparse_workspace = ws
        return ws

    # -- internals -----------------------------------------------------------

    def _pick_probe_columns(self, v: np.ndarray, exact: np.ndarray) -> np.ndarray:
        """Random probe columns, always including the heaviest-mass column.

        Including the top column makes the probe error sample cover the
        score that matters most for peer selection.  The top column is
        retained unconditionally: deduplication drops random picks, not
        the guaranteed column (a plain ``np.unique(...)[:p]`` truncation
        would silently discard high indices — including the top).

        The draw comes from a *spawned* child generator, not the
        partner-choice stream: full and probe runs with the same seed
        therefore see identical mixing-matrix sequences, which is what
        makes probe-mode step counts directly comparable to full mode.
        """
        p = self.probe_columns
        if p >= self.n:
            return np.arange(self.n)
        top = int(np.argmax(exact))
        col_rng = self._rng.spawn(1)[0]
        rest = col_rng.choice(self.n, size=p, replace=False)
        cols = [top, *[int(c) for c in rest if int(c) != top][: p - 1]]
        return np.sort(np.asarray(cols, dtype=np.int64))

    @staticmethod
    def _column_stats(tiles: Sequence[np.ndarray]) -> Tuple[np.ndarray, float]:
        """Per-column mean of the estimates, plus node disagreement.

        ``tiles`` are the estimates' contiguous column tiles in column
        order, reduced tile by tile; each is finite (a cycle ends only
        once W is positive everywhere).  The column sums accumulate in
        float64 whatever the dtype: a float32 sum down 10^6 rows drifts
        by ~1e-4 relative, the scale of epsilon.  A tile of two or more
        columns sums each column row by row, so any such split gives
        the unsplit sums bitwise (NumPy sums a lone column pairwise).
        """
        means = np.concatenate([B.mean(axis=0, dtype=np.float64) for B in tiles])
        spread = max(float((B.max(axis=0) - B.min(axis=0)).max()) for B in tiles)
        return means, spread

    # -- step loop ---------------------------------------------------------

    def _gossip(
        self,
        Xs: sparse.csr_matrix,
        Ws: sparse.csr_matrix,
        *,
        phases: Optional[Dict[str, float]] = None,
    ) -> Tuple[int, List[np.ndarray]]:
        """Step loop: one check window at a time, one column block per thread.

        Each tile's X0 and W0 columns are scattered into its dense slots
        first (zeroed, then written from one CSC copy of each).
        A window is the run of steps up to the next convergence check,
        capped at ``check_every`` steps and at the step budget.  Per
        window the calling thread draws the window's targets; one pool
        round trip then covers the window (:meth:`_step_window`): each
        block takes its tiles in turn, and each tile steps through all
        of the window's steps (:meth:`_dense_step`) and, on a check
        step, computes its check share while its slots are still in
        cache.  Slots rotate by index arithmetic: after ``s`` steps X
        lives at slot ``(-s) % 3``, W at ``(1 - s) % 3``.

        The check fires every ``check_every`` steps, per step once a
        residual comes within ``_FINE_FACTOR`` of epsilon, and compares
        nothing before ``W`` is positive everywhere (before that the
        residual cannot be finite).  The sanitizer checks and the
        combination of the blocks' residual maxima
        (:meth:`_worst_residual`) stay on the calling thread, so step
        counts are invariant in the block count too.

        Returns ``(steps, prev)`` where ``prev`` is the tiles' persistent
        ``(n, width)`` estimate buffers in column order — the only dense
        state the cycle touches besides the slots.  Raises
        :class:`ConvergenceError` when the step budget runs out first.
        """
        n = self.n
        p = Xs.shape[1]
        k = self.check_every
        alloc_watch = Stopwatch()
        ws = self._acquire_sparse_workspace(p)
        if phases is not None:
            phases["alloc"] = phases.get("alloc", 0.0) + alloc_watch.elapsed()
        ws.w_pos = [False] * ws.tiles
        cores = _usable_cores()
        pool = _step_pool(cores - 1) if ws.blocks > 1 and cores > 1 else None
        for slot, start in enumerate((Xs, Ws)):
            self._scatter_tiles(ws, start.tocsc(), slot)
        stream = _TargetStream(self._rng, n, k)
        san = self.sanitizer
        # Push-sum conservation references (column sums are invariant
        # under M = 0.5*(I + A), so the totals are too).
        x_mass = self._slot_mass(ws, 0) if san is not None else 0.0
        w_mass = self._slot_mass(ws, 1) if san is not None else 0.0
        step = 0
        have_prev = False
        fine = False  # per-step checks once a residual nears epsilon
        fine_at = _FINE_FACTOR * self.epsilon

        while step < self.max_steps:
            nxt = self._next_check(step, fine)
            stop = min(nxt, step + k, self.max_steps)
            targets = [stream.next() for _ in range(stop - step)]
            check = stop == nxt
            self._step_window(ws, pool, step, targets, check, have_prev)
            step = stop
            if not check:
                continue  # a capped window, or the budget ran out first
            if san is not None:
                xs = (-step) % 3
                wsl = (1 - step) % 3
                san.check_mass(
                    "sum(X)", self._slot_mass(ws, xs), x_mass, step=step
                )
                san.check_mass(
                    "sum(W)", self._slot_mass(ws, wsl), w_mass, step=step
                )
                for dense in ws.dense:
                    san.check_nonnegative("W", dense[wsl], step=step)
            if not all(ws.w_pos):
                continue
            if san is not None:
                for prev in ws.prev:
                    san.check_finite("estimates x/w", prev, step=step)
            if have_prev:
                worst, all_below = self._worst_residual(ws)
                if all_below:
                    return step, ws.prev
                # Close to the finish line: resolve the stop step at
                # Algorithm 1's per-step granularity instead of paying
                # up to check_every - 1 extra O(n*p) gossip steps.
                fine = fine or worst <= fine_at
            have_prev = True
        raise ConvergenceError(
            f"gossip cycle exceeded {self.max_steps} steps "
            f"(epsilon={self.epsilon})",
            steps=self.max_steps,
        )

    @staticmethod
    def _scatter_tiles(ws: SparseWorkspace, start: sparse.csc_matrix, slot: int) -> None:
        """Write ``start``'s columns into slot ``slot`` of every tile.

        Each tile's columns are one contiguous run of the CSC arrays,
        scattered into the zeroed slot (X0 and W0 hold no duplicate
        entries: a product and a column selection of the identity).
        """
        indptr = start.indptr
        cols = np.repeat(np.arange(start.shape[1]), np.diff(indptr))
        for t, dense in enumerate(ws.dense):
            lo, hi = ws.tile_bounds[t], ws.tile_bounds[t + 1]
            a, b = indptr[lo], indptr[hi]
            out = dense[slot]
            out.fill(0)
            out[start.indices[a:b], cols[a:b] - lo] = start.data[a:b]

    def _next_check(self, step: int, fine: bool) -> int:
        """The next step (> ``step``) on which a convergence check fires.

        The first step that is at least ``min_steps`` and — outside the
        fine phase — a multiple of the check cadence.
        """
        t = max(step + 1, self.min_steps)
        if fine:
            return t
        r = t % self.check_every
        return t if r == 0 else t + (self.check_every - r)

    def _step_window(
        self,
        ws: SparseWorkspace,
        pool: Optional[ThreadPoolExecutor],
        step0: int,
        targets: Sequence[np.ndarray],
        check: bool,
        scan: bool,
    ) -> None:
        """One window of every block: blocks 1.. on ``pool``, 0 on this thread.

        Each block writes only its own tiles' slot arrays, flags,
        ``prev`` and ``tile_max`` rows, and its check scratch, while
        ``targets`` stays read-only.  After block 0 this thread also steps every
        block no pool thread has taken yet (a cancelled future never
        runs), so a descheduled pool thread cannot stall the window.
        The taken futures resolve in submission order, all of them
        before any error propagates, so no block is still running when
        the caller sees it; a failed window leaves the workspace
        half-stepped, so it is dropped and the next cycle allocates
        fresh.  Without a pool the blocks step here in turn.
        """
        args = (step0, targets, check, scan)
        try:
            if pool is None:
                for g in range(ws.blocks):
                    self._step_group(ws, g, *args)
                return
            futures: List[Future[None]] = [
                pool.submit(self._step_group, ws, g, *args)
                for g in range(1, ws.blocks)
            ]
            try:
                self._step_group(ws, 0, *args)
                for g, future in enumerate(futures, start=1):
                    if future.cancel():  # no thread took it yet: step it here
                        self._step_group(ws, g, *args)
            finally:
                for future in futures:
                    future.cancel()  # after an error, untaken blocks never run
                taken = [f for f in futures if not f.cancelled()]
                wait(taken)
            for future in taken:
                future.result()
        except BaseException:
            self.invalidate_workspace()
            raise

    # hot: one block's window — tile by tile, its steps, then its check share
    def _step_group(
        self,
        ws: SparseWorkspace,
        g: int,
        step0: int,
        targets: Sequence[np.ndarray],
        check: bool,
        scan: bool,
    ) -> None:
        """Step block ``g`` through the window (a pool thread for ``g > 0``).

        Tile by tile, the block runs all of the window's steps back to
        back, then, on a check window, the tile's check share
        (:meth:`_check_tile`) while its slots are still in cache.
        """
        for t in ws.block_tiles[g]:
            for s, row in enumerate(targets):
                self._dense_step(ws, t, step0 + s, row)
            if check:
                self._check_tile(ws, g, t, step0 + len(targets), scan)

    # hot: one tile step — kept halves, then a sort-free csc_matvecs scatter
    def _dense_step(
        self, ws: SparseWorkspace, t: int, step: int, targets: np.ndarray
    ) -> None:
        """Step ``step + 1`` of tile ``t``: ``M @ X`` and ``M @ W``, dense.

        Each output starts as the halved kept share, then
        ``csc_matvecs`` adds ``0.5 * X[j]`` into row ``targets[j]`` for
        every sender ``j`` in ascending order — ``A`` in CSC form has
        exactly one entry per column, so its column pointer is the
        constant ``arange(n + 1)`` and its row indices are ``targets``
        itself.  Per receiver that is the kept half first, then the
        inbound halves by ascending sender.  Rotation matches
        :meth:`_gossip`: X lives in slot ``(-step) % 3`` and W in
        ``(1 - step) % 3``; the new X goes into the third slot, the new
        W into the slot X vacated.
        """
        dense = ws.dense[t]
        n = ws.n
        ps = dense[0].shape[1]
        x_old = dense[(-step) % 3]
        w_old = dense[(1 - step) % 3]
        x_new = dense[(2 - step) % 3]
        np.multiply(x_old, 0.5, out=x_new)
        _csc_matvecs(
            n, n, ps, ws.cptr, targets, ws.half, x_old.ravel(), x_new.ravel()
        )
        np.multiply(w_old, 0.5, out=x_old)  # X's old slot takes the new W
        _csc_matvecs(
            n, n, ps, ws.cptr, targets, ws.half, w_old.ravel(), x_old.ravel()
        )

    @staticmethod
    def _slot_mass(ws: SparseWorkspace, slot: int) -> float:
        """Total mass of slot ``slot`` across tiles."""
        return sum(float(dense[slot].sum()) for dense in ws.dense)

    # hot: estimates — divide straight out of the slots
    def _estimate_tile(
        self,
        ws: SparseWorkspace,
        t: int,
        xslot: int,
        wslot: int,
        lo: int,
        hi: int,
        xt: np.ndarray,
    ) -> None:
        """Estimates ``X / W`` of rows ``[lo, hi)`` of tile ``t`` into ``xt``."""
        dense = ws.dense[t]
        np.divide(dense[xslot][lo:hi], dense[wslot][lo:hi], out=xt)

    # hot: a tile's check share — W gate, estimates into prev, residual maxima
    def _check_tile(
        self, ws: SparseWorkspace, b: int, t: int, step: int, scan: bool
    ) -> None:
        """Tile ``t``'s (of block ``b``) share of the check after ``step`` steps.

        Until the tile's W is positive everywhere (``w_pos``, sticky)
        it does nothing.  Then it writes the tile's estimates into its
        ``prev``, and with ``scan`` (a previous estimate exists) first
        stores each ``blk``-row tile's largest relative change, with the
        ``REL_FLOOR`` guard, in ``tile_max[t]``.  A tile narrower than
        its block covers as many whole row tiles per pass as the block's
        scratch holds and splits their maxima by reshape.  Every row
        tile is scanned; the early exit of the epsilon comparison
        happens in :meth:`_worst_residual`.
        """
        xslot = (-step) % 3
        wslot = (1 - step) % 3
        if not ws.w_pos[t]:
            ws.w_pos[t] = float(ws.dense[t][wslot].min()) > 0.0
            if not ws.w_pos[t]:
                return
        n = ws.n
        blk = ws.blk
        prev = ws.prev[t]
        pc = prev.shape[1]
        maxima = ws.tile_max[t]
        scratch = ws.scratch[b]
        rows = blk * (scratch.x.size // (blk * pc))  # whole row tiles per pass
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            m = hi - lo
            xt = scratch.x[: m * pc].reshape(m, pc)
            self._estimate_tile(ws, t, xslot, wslot, lo, hi, xt)
            psub = prev[lo:hi]
            if scan:
                flat = scratch.num[: m * pc]
                num = flat.reshape(m, pc)
                den = scratch.den[: m * pc].reshape(m, pc)
                np.subtract(xt, psub, out=num)
                np.abs(num, out=num)
                np.maximum(psub, REL_FLOOR, out=den)
                num /= den
                r, full = lo // blk, m // blk
                if full:  # whole row tiles, one maximum each
                    flat[: full * blk * pc].reshape(full, -1).max(
                        axis=1, out=maxima[r : r + full]
                    )
                if m > full * blk:  # the last, shorter row tile
                    maxima[r + full] = flat[full * blk * pc :].max()
            psub[...] = xt

    def _worst_residual(self, ws: SparseWorkspace) -> Tuple[float, bool]:
        """Combine the tiles' residual maxima: ``(worst, all_below)``.

        Row tile by row tile, ``worst`` takes the largest of the column
        tiles' maxima (in column order, so a NaN maximum is skipped as a
        serial scan skips it) and freezes at the first row tile that
        lifts it past epsilon.  That is the scan order of one serial
        blocked check over the unsplit columns, so the worst residual,
        the fine-phase trigger and the stop step do not depend on the
        block or tile count.
        """
        eps = self.epsilon
        worst = 0.0
        for row in ws.tile_max.T.tolist():
            tile_worst = 0.0
            for value in row:
                tile_worst = max(tile_worst, value)
            worst = max(worst, tile_worst)
            if worst > eps:
                return worst, False
        return worst, True

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SynchronousGossipEngine(n={self.n}, mode={self.mode!r}, "
            f"epsilon={self.epsilon})"
        )
