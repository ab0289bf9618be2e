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

One step loop serves both modes, in two phases per cycle:

1. **CSR warm start.**  X0 inherits the trust matrix's sparsity, so X
   and W start the cycle in CSR form, held in three rotating
   :class:`~repro.gossip.memory.CsrPool` buffers (current X, current W,
   SpGEMM output) whose capacity grows geometrically and never per
   step.  A step lays ``M = 0.5*(I + A)`` out in CSR
   (:func:`fill_mixing`: per row the diagonal first, then the senders
   in ascending order) and runs two C-level SpGEMMs (``csr_matmat``) of
   it against the pooled state.
2. **Dense handoff.**  Each column shard hands off to dense stepping
   once its occupancy crosses ``_DENSIFY_THRESHOLD``: the CSR values
   are gathered into three reusable dense slot arrays and the pool
   arrays are released.  From then on a step is sort-free.  The
   output starts as the halved kept
   share (``np.multiply(X, 0.5, out=Y)``), then ``csc_matvecs`` scatters
   every sender's half into its target's row, with ``A`` in CSC form as
   ``(arange(n + 1), targets)`` — one entry per sender column, so there
   is no sort, no ``indptr`` and no mixing layout at all.  Senders are
   visited in ascending order, so each receiver sums its kept half and
   then its inbound halves in exactly the order the diagonal-first CSR
   layout sums them: the handoff is bitwise-invisible at any handoff
   point, at 8 bytes per state entry instead of CSR's 12.

The estimate/residual pass reads cache-blocked tiles of
``_TILE_ELEMENTS / p`` rows against one persistent ``prev`` estimate
buffer.  With probe-mode column selection the working set is (n, p)
regardless of n — at n = 10^5, p = 64, float64 the whole cycle fits
~0.5 GiB; ``dtype="float32"`` nearly halves it again for the n = 10^6
tier.

Column shards are the unit of thread parallelism.  The ``p`` columns
split into one shard per usable core (at least ``_MIN_SHARD_COLUMNS``
columns and ``_MIN_SHARD_ELEMENTS`` entries each, so only tiny cycles
stay whole), or into more where ``n * p`` would overflow the pools'
int32 indices (:func:`~repro.gossip.memory.min_shards_for`).  Every
step lays out ``M`` and draws targets on the calling thread, hands
shards ``1..k-1`` to a process-wide thread pool, steps shard 0 itself
(and any shard no pool thread has taken yet) and resolves the futures
in submission order; the SpGEMMs, gathers and dense scatters release
the GIL, so the shards run on separate cores.  Each shard writes only
its own pools and dense slots.

Partner draws come from one RNG stream (a Generator fills a ``(k, n)``
block in the same element order as ``k`` successive size-``n`` draws),
so every shard count, thread count and handoff point walks the same
mixing-matrix sequence and stops on the same step.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.analysis.sanitizer import InvariantSanitizer
from repro.errors import ConvergenceError, ValidationError
from repro.gossip.base import CycleEngine, GossipCycleResult, TrustInput, coerce_csr
from repro.gossip.convergence import average_relative_error
from repro.gossip.memory import CsrPool, min_shards_for
from repro.metrics.telemetry import Stopwatch
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range, check_vector

try:  # the C kernels behind scipy's sparse products and densification
    from scipy.sparse._sparsetools import csc_matvecs as _csc_matvecs
    from scipy.sparse._sparsetools import csr_matmat as _csr_matmat
    from scipy.sparse._sparsetools import csr_todense as _csr_todense
except ImportError:  # pragma: no cover - very old scipy
    _csc_matvecs = None
    _csr_matmat = None
    _csr_todense = None

__all__ = [
    "GossipCycleResult",
    "SynchronousGossipEngine",
    "SparseWorkspace",
    "column_shards",
]

#: engine dtype names accepted by ``dtype=`` (the buffer precision)
DTYPE_NAMES = ("float64", "float32")

#: above this node count, auto mode switches from full to probe
_FULL_MODE_LIMIT = 1500

#: floor for relative-change denominators (see pushsum._REL_FLOOR)
_REL_FLOOR = 1e-12

#: once a coarse check sees a residual below _FINE_FACTOR * epsilon the
#: step loop switches to per-step checks (Algorithm 1's granularity)
_FINE_FACTOR = 8.0

#: above this many B elements, run_cycle's column statistics go blocked
#: (no (n, p)-sized temporaries) instead of one-shot nan-reductions
_BLOCKED_STATS_LIMIT = 1 << 24

#: occupancy fraction at which a CSR column shard hands off to dense
#: stepping (results do not depend on it; only the cost split does)
_DENSIFY_THRESHOLD = 0.25

#: elements per estimate/residual tile (~1 MiB of float64): the tile
#: height is ``_TILE_ELEMENTS // p`` rows (results do not depend on it)
_TILE_ELEMENTS = 1 << 17

#: fewest columns per thread shard: a core gets a shard of its own only
#: while every shard keeps this many (results do not depend on it)
_MIN_SHARD_COLUMNS = 16

#: fewest state entries (``n * p_shard``) per thread shard: ~0.1 ms of
#: dense stepping, several times a pool round trip, so tiny cycles stay
#: whole (results do not depend on it)
_MIN_SHARD_ELEMENTS = 1 << 16


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where known."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity API


def column_shards(n: int, p: int) -> int:
    """The column-shard count of an ``(n, p)`` cycle.

    One shard per usable core while every shard keeps at least
    ``_MIN_SHARD_COLUMNS`` columns and ``_MIN_SHARD_ELEMENTS`` state
    entries, but never fewer than the int32 guard needs
    (:func:`~repro.gossip.memory.min_shards_for`), and never more
    shards than columns.
    """
    threaded = min(
        _usable_cores(), p // _MIN_SHARD_COLUMNS, n * p // _MIN_SHARD_ELEMENTS
    )
    return max(1, min(p, max(min_shards_for(n, p), threaded)))


_pool: Optional[ThreadPoolExecutor] = None
_pool_key = (0, 0)
_pool_lock = threading.Lock()


def _step_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide shard-step pool of ``workers`` threads.

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


# hot: per-step CSR layout of M = 0.5*(I + A)
def fill_mixing(
    targets: np.ndarray,
    ids: np.ndarray,
    m_indptr: np.ndarray,
    m_indices: np.ndarray,
) -> None:
    """Lay out one step's mixing matrix into preallocated CSR arrays.

    Row ``r`` stores the diagonal entry ``r`` first, then the sender
    columns ``{i : targets[i] == r}`` in ascending order — an O(n)
    bincount + stable-argsort layout (no COO -> CSR conversion, no
    duplicate summing).  ``csr_matmat`` therefore sums each receiver's
    kept half first and its inbound halves by ascending sender, the
    order the sort-free dense step sums them in, so CSR and dense
    stepping agree bitwise.  ``M`` always has exactly ``2n`` entries
    and its values are the constant 0.5 vector, so only ``m_indptr``
    and ``m_indices`` are written here.
    """
    n = targets.size
    np.cumsum(np.bincount(targets, minlength=n) + 1, out=m_indptr[1:])
    order = np.argsort(targets, kind="stable")
    sorted_t = targets[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_t[1:] != sorted_t[:-1]))
    )
    seg_origin = np.repeat(starts, np.diff(np.append(starts, n)))
    m_indices[m_indptr[sorted_t] + 1 + (ids - seg_origin)] = order
    m_indices[m_indptr[:-1]] = ids


class SparseWorkspace:
    """Pooled CSR buffers and dense slots of the engine, one shape.

    The ``p`` probe columns are split into ``shards`` contiguous,
    near-equal column ranges (``bounds[i] : bounds[i + 1]``), each
    stepped independently and, one per usable core, on its own thread:
    because the mixing matrix acts on rows, the SpGEMM over a column
    subset computes bitwise the same values as the same columns of the
    unsharded product.  Every shard owns three
    rotating :class:`~repro.gossip.memory.CsrPool` instances (current
    X, current W, SpGEMM output — the output pool is always the one
    whose contents just died, so two pools' worth of state plus one
    scratch covers the whole cycle).  Sharding also keeps each pool's
    ``n * p_shard`` element count inside the int32 index guard when
    ``n * p`` itself would not fit.  The mixing matrix
    ``M = 0.5*(I + A)`` has exactly ``2n`` entries every step, so its
    ``m_indptr``/``m_indices``/``m_data`` arrays are fixed-size and
    ``m_data`` is the constant 0.5 vector, filled once; all shards of a
    step share it, read-only while they run.  Its first ``n`` entries
    (``half``) double as the
    values of ``A`` in the dense step, whose CSC column pointer is the
    constant ``cptr = arange(n + 1)``.

    The ``dense`` / ``dense_on`` lists carry the handoff state: once a
    shard's occupancy crosses
    ``_DENSIFY_THRESHOLD`` its CSR values move into three
    ``(n, p_shard)`` dense slot arrays (kept for reuse across cycles)
    and the pool arrays are released, so the steady state costs
    ``3 * n * p`` elements flat instead of CSR's values + int32
    indices.  Beyond those slots the only dense (n, p) array is
    ``prev``, the persistent previous estimate of the convergence
    check; the check itself runs over ``blk``-row tiles
    (``xt``/``wt``/``num``/``den``, plus the ``bp`` offset-adjusted
    indptr), so peak memory is bounded by
    ``3 * state + (n, p) + O(blk * p)`` regardless of how long the
    cycle runs.  ``blk`` derives from the *full* probe width ``p``
    whatever the shard count, so residual scans of every shard count
    walk identical row tiles.
    """

    __slots__ = (
        "n", "p", "dtype", "shards", "bounds", "shard_pools", "pools",
        "dense", "dense_on", "m_indptr", "m_indices", "m_data", "half", "prev",
        "xt", "wt", "num", "den", "bp", "blk", "cptr", "ids", "valid",
    )

    def __init__(
        self,
        n: int,
        p: int,
        dtype: "np.dtype | type" = np.float64,
        shards: int = 1,
    ) -> None:
        self.n = int(n)
        self.p = int(p)
        self.dtype = np.dtype(dtype)
        self.shards = max(1, min(int(shards), self.p))
        self.bounds = tuple(
            self.p * i // self.shards for i in range(self.shards + 1)
        )
        self.shard_pools: List[List[CsrPool]] = []
        for si in range(self.shards):
            ps = self.bounds[si + 1] - self.bounds[si]
            # O(n) start (X0 inherits S's sparsity), doubled
            # geometrically toward the n*ps occupancy ceiling.
            cap0 = min(n * ps, max(ps, 2 * n))
            self.shard_pools.append(
                [CsrPool(n, ps, cap0, self.dtype) for _ in range(3)]
            )
        #: shard 0's pool triple (the whole state when ``shards == 1``)
        self.pools = self.shard_pools[0]
        #: per-shard dense slot arrays [X, W, out], allocated lazily at
        #: the dense handoff and reused across cycles
        self.dense: List[Optional[List[np.ndarray]]] = [None] * self.shards
        #: per-cycle flags: shard ``si`` stepped dense since its load
        self.dense_on: List[bool] = [False] * self.shards
        self.m_indptr = np.empty(n + 1, np.int32)
        self.m_indptr[0] = 0
        self.m_indices = np.empty(2 * n, np.int32)
        self.m_data = np.full(2 * n, 0.5, self.dtype)
        self.half = self.m_data[:n]
        self.prev = np.empty((n, p), self.dtype)
        self.blk = max(1, min(n, _TILE_ELEMENTS // max(p, 1)))
        self.xt = np.empty((self.blk, p), self.dtype)
        self.wt = np.empty((self.blk, p), self.dtype)
        self.num = np.empty((self.blk, p), self.dtype)
        self.den = np.empty((self.blk, p), self.dtype)
        self.bp = np.empty(self.blk + 1, np.int32)
        self.cptr = np.arange(n + 1, dtype=np.int64)
        self.ids = self.cptr[:n]
        self.valid = True

    def matches(self, n: int, p: int, dtype: "np.dtype | type", shards: int) -> bool:
        """Whether these pools serve the full shape tuple and are live."""
        return (
            self.valid
            and self.n == n
            and self.p == p
            and self.dtype == np.dtype(dtype)
            and self.shards == max(1, min(int(shards), self.p))
        )

    def invalidate(self) -> None:
        """Mark the pools dead and drop the dense slots."""
        self.valid = False
        self.dense = []
        self.dense_on = []

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SparseWorkspace(n={self.n}, p={self.p}, "
            f"dtype={self.dtype.name}, shards={self.shards}, "
            f"valid={self.valid})"
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
    probe_columns:
        Number of probe columns in probe mode.
    max_steps:
        Per-cycle gossip step budget.
    min_steps:
        Steps before the epsilon criterion may fire (>= 2 avoids the
        vacuous all-masses-still-local state).
    check_every:
        Convergence-check cadence: the O(n*p) estimate/residual pass
        runs every ``check_every`` steps instead of every step.  The
        residual then measures the estimate change across ``check_every``
        steps — a *stricter* reading of the epsilon criterion — so the
        result is invariant modulo step-count granularity while the
        per-step cost drops by nearly the full estimate-pass share.
        Once a residual lands within ``_FINE_FACTOR`` of epsilon the
        loop drops to per-step checks, so the finish line is resolved
        at Algorithm 1's per-step granularity and the cadence never
        overshoots the stop step by more than the coarse phase.
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

    The ``p`` columns split into :func:`column_shards` shards: one per
    usable core while each keeps ``_MIN_SHARD_COLUMNS`` columns and
    ``_MIN_SHARD_ELEMENTS`` entries, more only where one pool's
    ``n * p`` entries would overflow its int32 indices.  The shards of a step run on a process-wide thread pool
    of ``cores - 1`` threads plus the calling thread.  Results are
    invariant in the shard and thread counts: column subsets of a
    row-acting SpGEMM are bitwise the same values, and the partner
    draws and convergence checks stay on the calling thread.
    """

    name = "sync"

    def __init__(
        self,
        n: int,
        *,
        epsilon: float = 1e-4,
        mode: str = "auto",
        probe_columns: int = 64,
        max_steps: int = 5_000,
        min_steps: int = 2,
        check_every: int = 8,
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
        if _csr_matmat is None:
            raise ValidationError(  # pragma: no cover - very old scipy
                "the sync engine needs scipy's csr_matmat/csr_todense/"
                "csc_matvecs kernels"
            )
        check_in_range("epsilon", epsilon, low=0.0, low_inclusive=False)
        if probe_columns < 1:
            raise ValidationError(f"probe_columns must be >= 1, got {probe_columns}")
        if max_steps < 1:
            raise ValidationError(f"max_steps must be >= 1, got {max_steps}")
        if check_every < 1:
            raise ValidationError(f"check_every must be >= 1, got {check_every}")
        self.n = int(n)
        self.epsilon = float(epsilon)
        if mode != "auto":
            self.mode = mode
        else:
            self.mode = "probe" if n > _FULL_MODE_LIMIT else "full"
        self.probe_columns = int(min(probe_columns, n))
        self.max_steps = int(max_steps)
        self.min_steps = int(min_steps)
        self.check_every = int(check_every)
        self.dtype = dtype
        self._dtype = np.dtype(dtype)
        self._rng = as_generator(rng)
        self._sparse_workspace: SparseWorkspace | None = None
        #: steps used by each cycle run so far (reset via clear_stats)
        self.cycle_steps: list = []

    # -- public API --------------------------------------------------------

    def run_cycle(
        self,
        S: TrustInput,
        v: np.ndarray,
        *,
        raise_on_budget: bool = True,
    ) -> GossipCycleResult:
        """Gossip one aggregation cycle: estimate ``S^T v`` on every node.

        Raises
        ------
        ConvergenceError
            If the epsilon criterion is not met in ``max_steps`` (unless
            ``raise_on_budget=False``, which returns the best effort).
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

        steps, converged, B = self._gossip(
            X0, W0, raise_on_budget=raise_on_budget, phases=phases
        )
        # The interval covers workspace acquisition too; the step loop
        # reports that share separately as the "alloc" phase.
        phases["kernel"] = max(0.0, watch.restart() - phases.get("alloc", 0.0))
        self.cycle_steps.append(steps)

        col_means, disagreement = self._column_stats(B)

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
            converged=converged,
            mode=self.mode,
            node_disagreement=disagreement,
            phase_times=phases,
        )

    def clear_stats(self) -> None:
        """Reset the per-cycle step log."""
        self.cycle_steps = []

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

    def _effective_shards(self, p: int) -> int:
        """The shard count used for probe width ``p`` (:func:`column_shards`)."""
        return column_shards(self.n, p)

    def _acquire_sparse_workspace(self, p: int) -> SparseWorkspace:
        """The reusable buffer set for shape ``(n, p)``.

        Kept alive across cycles of the same shape: every buffer is
        write-before-read within a cycle, so reuse never shows in the
        results and a multi-cycle run pays the allocations once.
        """
        shards = self._effective_shards(p)
        ws = self._sparse_workspace
        if ws is None or not ws.matches(self.n, p, self._dtype, shards):
            if ws is not None:
                ws.invalidate()
            ws = SparseWorkspace(self.n, p, self._dtype, shards)
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
    def _column_stats(B: np.ndarray) -> Tuple[np.ndarray, float]:
        """Per-column mean of the finite estimates, plus node disagreement.

        Small matrices take one-shot reductions: the column extremes
        first, and when they are all finite (every converged cycle) the
        plain column means, which equal the nan-masked ones bitwise; a
        non-finite ``B`` (the best-effort path) takes the nan-reduction
        path.  Past
        ``_BLOCKED_STATS_LIMIT`` elements the reductions run over row
        blocks with O(block * p) temporaries instead — at n = 10^6,
        p = 64, float64 the one-shot path's masked copy alone is
        ~0.5 GiB, a third of the whole cycle's budget.
        """
        n, p = B.shape
        if n * p <= _BLOCKED_STATS_LIMIT:
            col_max = B.max(axis=0)
            col_min = B.min(axis=0)
            if np.isfinite(col_max).all() and np.isfinite(col_min).all():
                return B.mean(axis=0), float((col_max - col_min).max())
            col_means = np.nanmean(np.where(np.isfinite(B), B, np.nan), axis=0)
            disagreement = float(
                np.nanmax(np.nanmax(B, axis=0) - np.nanmin(B, axis=0))
            ) if np.isfinite(B).any() else float("inf")
            return col_means, disagreement
        blk = max(1, (1 << 20) // max(p, 1))
        sums = np.zeros(p, dtype=np.float64)
        counts = np.zeros(p, dtype=np.int64)
        col_max = np.full(p, -np.inf)
        col_min = np.full(p, np.inf)
        for lo in range(0, n, blk):
            tile = B[lo : min(lo + blk, n)]
            finite = np.isfinite(tile)
            if bool(finite.all()):
                sums += tile.sum(axis=0, dtype=np.float64)
                counts += tile.shape[0]
                np.maximum(col_max, tile.max(axis=0), out=col_max)
                np.minimum(col_min, tile.min(axis=0), out=col_min)
                continue
            masked = np.where(finite, tile, 0.0)
            sums += masked.sum(axis=0, dtype=np.float64)
            counts += finite.sum(axis=0)
            np.maximum(
                col_max, np.where(finite, tile, -np.inf).max(axis=0), out=col_max
            )
            np.minimum(
                col_min, np.where(finite, tile, np.inf).min(axis=0), out=col_min
            )
        seen = counts > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            col_means = np.where(seen, sums / np.maximum(counts, 1), np.nan)
        if not bool(seen.any()):
            return col_means, float("inf")
        spread = col_max[seen] - col_min[seen]
        return col_means, float(spread.max())

    # -- step loop ---------------------------------------------------------

    def _gossip(
        self,
        Xs: sparse.csr_matrix,
        Ws: sparse.csr_matrix,
        *,
        raise_on_budget: bool,
        phases: Optional[Dict[str, float]] = None,
    ) -> Tuple[int, bool, np.ndarray]:
        """Step loop: pooled CSR warm start, then sort-free dense steps.

        A CSR step is, per column shard, two C-level SpGEMMs
        (``csr_matmat``) of the pooled mixing matrix against the
        shard's pooled state, writing into whichever of its three
        rotating :class:`~repro.gossip.memory.CsrPool` buffers just
        died — capacity grows geometrically toward the ``n * p_shard``
        occupancy ceiling and never per step (the SpGEMM output bound
        is the closed form ``min(2 * nnz, n * p_shard)``, so no
        symbolic pass runs).  Rotation is by index arithmetic: after
        ``s`` steps X lives at slot ``(-s) % 3``, W at ``(1 - s) % 3``.
        Each shard hands off to dense slot stepping once its occupancy
        crosses ``_DENSIFY_THRESHOLD`` (:meth:`_densify_shard` /
        :meth:`_dense_step` — bitwise the same values, ~2/3 the
        steady-state bytes, no mixing layout); once every shard is
        dense the per-step CSR layout of ``M`` stops too.  The shards
        of a step run concurrently (:meth:`_step_shards`); the layout,
        the partner draws, the checks and the sanitizer stay on the
        calling thread.

        The estimate/residual check (:meth:`_check`) runs every
        ``check_every`` steps, per step once a residual comes within
        ``_FINE_FACTOR`` of epsilon, and never before ``W`` is positive
        everywhere (before that the residual cannot be finite).  It
        compares only after a full row tile (all shards), so step
        counts are invariant in the shard count too.

        Returns ``(steps, converged, B)`` where ``B`` is the persistent
        (n, p) estimate buffer — the only dense (n, p) array the cycle
        touches besides the dense slots.
        """
        n = self.n
        p = Xs.shape[1]
        k = self.check_every
        alloc_watch = Stopwatch()
        ws = self._acquire_sparse_workspace(p)
        if phases is not None:
            phases["alloc"] = phases.get("alloc", 0.0) + alloc_watch.elapsed()
        bounds = ws.bounds
        ws.dense_on = [False] * ws.shards
        cores = _usable_cores()
        pool = _step_pool(cores - 1) if ws.shards > 1 and cores > 1 else None
        for si, triple in enumerate(ws.shard_pools):
            if ws.shards == 1:
                triple[0].load(Xs)
                triple[1].load(Ws)
            else:
                lo, hi = bounds[si], bounds[si + 1]
                triple[0].load(sparse.csr_matrix(Xs[:, lo:hi]))
                triple[1].load(sparse.csr_matrix(Ws[:, lo:hi]))
        # Each shard hands off to dense slot arrays once its occupancy
        # crosses the threshold: past that point the sort-free dense
        # step beats SpGEMM and the index arrays are pure overhead —
        # and the handoff is bitwise-invisible (see _dense_step).
        dense_at = [
            max(0, int(_DENSIFY_THRESHOLD * t[0].full_capacity))
            for t in ws.shard_pools
        ]
        stream = _TargetStream(self._rng, n, k)
        san = self.sanitizer
        # Push-sum conservation references (column sums are invariant
        # under M = 0.5*(I + A), so the totals are too).
        x_mass = (
            sum(t[0].sum() for t in ws.shard_pools) if san is not None else 0.0
        )
        w_mass = (
            sum(t[1].sum() for t in ws.shard_pools) if san is not None else 0.0
        )
        step = 0
        converged = False
        have_prev = False
        w_allpos = False
        fine = False  # per-step checks once a residual nears epsilon
        fine_at = _FINE_FACTOR * self.epsilon

        while step < self.max_steps:
            # Advance in whole check windows: the skip logic collapses
            # to "next step where a check fires".
            nxt = self._next_check(step, fine)
            target = min(nxt, self.max_steps)
            # hot: step loop — layout and draws here, then every shard steps
            while step < target:
                targets = stream.next()
                if not all(ws.dense_on):  # only CSR shards need M laid out
                    fill_mixing(targets, ws.ids, ws.m_indptr, ws.m_indices)
                self._step_shards(
                    ws, pool, (-step) % 3, (1 - step) % 3, (2 - step) % 3,
                    targets, dense_at,
                )
                step += 1
            if step != nxt:
                break  # budget ran out before the next check step
            xs = (-step) % 3
            wsl = (1 - step) % 3
            if san is not None:
                san.check_mass(
                    "sum(X)", self._slot_mass(ws, xs), x_mass, step=step
                )
                san.check_mass(
                    "sum(W)", self._slot_mass(ws, wsl), w_mass, step=step
                )
                for si, triple in enumerate(ws.shard_pools):
                    dx = ws.dense[si]
                    if ws.dense_on[si] and dx is not None:
                        san.check_nonnegative("W", dx[wsl], step=step)
                    else:
                        Wp = triple[wsl]
                        san.check_nonnegative("W", Wp.data[: Wp.nnz], step=step)
            if not w_allpos:
                # W's pattern only grows (M carries a full diagonal) and
                # its values stay positive, so full occupancy is sticky
                # — the check degrades to one bool test afterwards.
                w_allpos = self._w_all_positive(ws, wsl)
                if not w_allpos:
                    continue
            worst, all_below = self._check(ws, step, have_prev)
            if have_prev:
                if all_below:
                    converged = True
                    break
                # Close to the finish line: resolve the stop step at
                # Algorithm 1's per-step granularity instead of paying
                # up to check_every - 1 extra O(n*p) gossip steps.
                fine = fine or worst <= fine_at
            have_prev = True

        # Normalize slot order so the next cycle loads into [X, W, out]
        # again (in place: ws.pools aliases shard 0's triple).  Dense
        # slot lists rotate with the same arithmetic as the pools, so
        # they are normalized identically — keeping the two indexable
        # by one slot number wherever a shard handed off.
        a = (-step) % 3
        b = (1 - step) % 3
        c = (2 - step) % 3
        for si, triple in enumerate(ws.shard_pools):
            triple[:] = [triple[a], triple[b], triple[c]]
            dense = ws.dense[si]
            if dense is not None:
                dense[:] = [dense[a], dense[b], dense[c]]
        if not converged:
            if raise_on_budget:
                raise ConvergenceError(
                    f"gossip cycle exceeded {self.max_steps} steps "
                    f"(epsilon={self.epsilon})",
                    steps=self.max_steps,
                )
            self._best_effort_estimates(ws)
        return step, converged, ws.prev

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

    def _step_shards(
        self,
        ws: SparseWorkspace,
        pool: Optional[ThreadPoolExecutor],
        a: int,
        b: int,
        c: int,
        targets: np.ndarray,
        dense_at: List[int],
    ) -> None:
        """One gossip step of every shard: 1.. on ``pool``, 0 on this thread.

        Handoffs are decided, and their dense slots claimed, here on the
        calling thread, so a shard's thread writes only into that
        shard's pools and slot arrays while ``targets`` and the mixing
        layout stay read-only.  After shard 0 this thread also steps
        every shard no pool thread has taken yet (a cancelled future
        never runs), so a descheduled pool thread cannot stall the
        step.  The taken futures resolve in submission order, all of
        them before any error propagates, so no shard is still running
        when the caller sees it; a failed step leaves the workspace
        half-stepped, so it is dropped and the next cycle allocates
        fresh.  Without a pool the shards step here in turn.
        """
        handoff = [False] * ws.shards
        for si, triple in enumerate(ws.shard_pools):
            nnz = max(triple[a].nnz, triple[b].nnz)
            if not ws.dense_on[si] and nnz >= dense_at[si]:
                self._claim_dense(ws, si)
                handoff[si] = True
        try:
            if pool is None:
                for si in range(ws.shards):
                    self._shard_step(ws, si, a, b, c, targets, handoff[si])
                return
            futures: List[Future[None]] = [
                pool.submit(
                    self._shard_step, ws, si, a, b, c, targets, handoff[si]
                )
                for si in range(1, ws.shards)
            ]
            try:
                self._shard_step(ws, 0, a, b, c, targets, handoff[0])
                for si, future in enumerate(futures, start=1):
                    if future.cancel():  # no thread took it yet: step it here
                        self._shard_step(ws, si, a, b, c, targets, handoff[si])
            finally:
                for future in futures:
                    future.cancel()  # after an error, untaken shards never run
                taken = [f for f in futures if not f.cancelled()]
                wait(taken)
            for future in taken:
                future.result()
        except BaseException:
            self.invalidate_workspace()
            raise

    # hot: one shard's step — the CSR SpGEMM pair, or handoff and dense step
    def _shard_step(
        self,
        ws: SparseWorkspace,
        si: int,
        a: int,
        b: int,
        c: int,
        targets: np.ndarray,
        handoff: bool,
    ) -> None:
        """Step shard ``si`` once (on a pool thread for ``si > 0``).

        A CSR shard runs its two SpGEMMs; a shard handing off this step
        gathers its state into the dense slots first; a dense shard
        runs the sort-free dense step.
        """
        if handoff:
            self._densify_shard(ws, si, a, b, c)
        if ws.dense_on[si]:
            self._dense_step(ws, si, a, b, c, targets)
        else:
            triple = ws.shard_pools[si]
            self._spgemm_step(ws, triple[a], triple[c])
            self._spgemm_step(ws, triple[b], triple[a])

    # hot: one pooled SpGEMM — dst := M @ src, no symbolic pass
    def _spgemm_step(self, ws: SparseWorkspace, src: CsrPool, dst: CsrPool) -> None:
        """Multiply the pooled mixing matrix into ``src``, writing ``dst``.

        ``dst`` is grown (geometrically, contents discarded — it holds
        dead state) to the closed-form output bound
        ``min(2 * nnz(src), n * p_shard)``: every output row merges the
        rows of at most ``I + A``'s two entries per column, so total
        output nnz is at most twice the input's, and a row never
        exceeds the shard's column count.  Skipping scipy's exact
        ``csr_matmat_maxnnz`` symbolic pass halves the per-step SpGEMM
        cost.  Output columns arrive unsorted (SMMP insertion order) —
        everything downstream gathers through ``csr_todense``, which
        scatters by index and does not care.
        """
        dst.ensure(2 * src.nnz)
        _csr_matmat(
            ws.n, src.cols,
            ws.m_indptr, ws.m_indices, ws.m_data,
            src.indptr, src.indices, src.data,
            dst.indptr, dst.indices, dst.data,
        )
        dst.nnz = int(dst.indptr[ws.n])

    @staticmethod
    def _claim_dense(ws: SparseWorkspace, si: int) -> None:
        """Flag shard ``si`` dense and give it its three slot arrays.

        The ``(n, p_shard)`` arrays are allocated once (untouched pages
        until the gather writes them) and persist on the workspace
        across cycles; only the ``dense_on`` flags reset per cycle.
        """
        if ws.dense[si] is None:
            ps = ws.bounds[si + 1] - ws.bounds[si]
            ws.dense[si] = [np.empty((ws.n, ps), dtype=ws.dtype) for _ in range(3)]
        ws.dense_on[si] = True

    def _densify_shard(
        self, ws: SparseWorkspace, si: int, a: int, b: int, c: int
    ) -> None:
        """Hand shard ``si`` off from pooled CSR to its dense slots.

        Gathers the live X (slot ``a``) and W (slot ``b``) values into
        the slot arrays :meth:`_claim_dense` provided and releases the
        CSR pool arrays — slot ``c`` holds dead state, so it is not
        gathered (the next step overwrites it as the step output).
        Each pool is released immediately after its gather, so the
        transient co-residency is one dense slot per shard, not three.
        """
        triple = ws.shard_pools[si]
        ps = triple[0].cols
        dense = ws.dense[si]
        assert dense is not None
        for slot in (a, b):
            pool = triple[slot]
            dst = dense[slot]
            dst.fill(0.0)
            _csr_todense(
                ws.n, ps, pool.indptr, pool.indices, pool.data, dst.ravel()
            )
            pool.release()
        triple[c].release()

    # hot: dense shard step — kept halves, then a sort-free csc_matvecs scatter
    def _dense_step(
        self,
        ws: SparseWorkspace,
        si: int,
        a: int,
        b: int,
        c: int,
        targets: np.ndarray,
    ) -> None:
        """One gossip step of a handed-off shard: ``M @ X``, ``M @ W`` dense.

        Each output starts as the halved kept share, then
        ``csc_matvecs`` adds ``0.5 * X[j]`` into row ``targets[j]`` for
        every sender ``j`` in ascending order — ``A`` in CSC form has
        exactly one entry per column, so its column pointer is the
        constant ``arange(n + 1)`` and its row indices are ``targets``
        itself.  Per receiver that is the kept half first, then the
        inbound halves by ascending sender: the order ``csr_matmat``
        sums the diagonal-first CSR layout of ``M``, and entries the CSR
        state would not store are exact dense zeros, so the dense
        trajectory is **bitwise** identical to the pooled-SpGEMM one at
        any handoff point.  Rotation matches :meth:`_gossip`: new X into
        slot ``c``, new W into the slot X vacated (``a``).
        """
        dense = ws.dense[si]
        assert dense is not None
        n = ws.n
        ps = dense[0].shape[1]
        x_old = dense[a]
        w_old = dense[b]
        x_new = dense[c]
        np.multiply(x_old, 0.5, out=x_new)
        _csc_matvecs(
            n, n, ps, ws.cptr, targets, ws.half, x_old.ravel(), x_new.ravel()
        )
        np.multiply(w_old, 0.5, out=x_old)  # X's old slot takes the new W
        _csc_matvecs(
            n, n, ps, ws.cptr, targets, ws.half, w_old.ravel(), x_old.ravel()
        )

    def _slot_mass(self, ws: SparseWorkspace, slot: int) -> float:
        """Total mass of slot ``slot`` across shards, CSR or dense."""
        total = 0.0
        for si, triple in enumerate(ws.shard_pools):
            dense = ws.dense[si]
            if ws.dense_on[si] and dense is not None:
                total += float(dense[slot].sum())
            else:
                total += triple[slot].sum()
        return total

    def _w_all_positive(self, ws: SparseWorkspace, wsl: int) -> bool:
        """Whether W is positive on every node (the convergence gate).

        CSR shards require full occupancy plus a positive minimum;
        dense shards store exact zeros where CSR stores nothing, so
        their positive minimum alone is the same test.
        """
        for si, triple in enumerate(ws.shard_pools):
            dense = ws.dense[si]
            if ws.dense_on[si] and dense is not None:
                if not float(dense[wsl].min()) > 0.0:
                    return False
            else:
                pool = triple[wsl]
                if pool.nnz != pool.full_capacity or not pool.min() > 0.0:
                    return False
        return True

    # hot: CSR row-range gather into a dense workspace tile
    def _gather_tile(
        self, ws: SparseWorkspace, pool: CsrPool, lo: int, hi: int, out: np.ndarray
    ) -> None:
        """Densify pool rows ``[lo, hi)`` into ``out`` (shaped exactly).

        ``bp`` holds the offset-adjusted indptr slice; ``csr_todense``
        scatter-adds the row entries into the zeroed tile at C speed.
        ``out`` is a contiguous ``(hi - lo, pool.cols)`` view of a
        workspace tile buffer.
        """
        m = hi - lo
        np.subtract(pool.indptr[lo : hi + 1], pool.indptr[lo], out=ws.bp[: m + 1])
        start = int(pool.indptr[lo])
        end = int(pool.indptr[hi])
        out.fill(0.0)
        _csr_todense(
            m, pool.cols, ws.bp[: m + 1],
            pool.indices[start:end], pool.data[start:end],
            out.ravel(),
        )

    # hot: estimate tile — dense slots divide in place, CSR shards gather first
    def _estimate_tile(
        self,
        ws: SparseWorkspace,
        si: int,
        xslot: int,
        wslot: int,
        lo: int,
        hi: int,
        xt: np.ndarray,
        wt: np.ndarray,
    ) -> None:
        """Estimates ``X / W`` of rows ``[lo, hi)`` of shard ``si`` into ``xt``.

        A handed-off shard divides straight out of its dense slot
        arrays; a CSR shard gathers X and W into the ``xt``/``wt``
        scratch tiles first (:meth:`_gather_tile`).  The gather yields
        exactly the values the dense slots hold, so both paths give the
        same quotients.
        """
        dense = ws.dense[si]
        if ws.dense_on[si] and dense is not None:
            np.divide(dense[xslot][lo:hi], dense[wslot][lo:hi], out=xt)
            return
        triple = ws.shard_pools[si]
        self._gather_tile(ws, triple[xslot], lo, hi, xt)
        self._gather_tile(ws, triple[wslot], lo, hi, wt)
        np.divide(xt, wt, out=xt)

    # hot: blocked estimate/residual pass over dense slots or CSR gathers
    def _check(
        self,
        ws: SparseWorkspace,
        step: int,
        have_prev: bool,
    ) -> Tuple[float, bool]:
        """One convergence check: estimates into ``prev``, residual out.

        A blocked residual scan with the ``_REL_FLOOR`` guard and early
        exit: once a tile's residual exceeds epsilon the scan stops
        *comparing* (``worst`` freezes, keeping the fine-trigger
        decision independent of later tiles) but keeps computing
        estimates, because ``prev`` must hold this check's complete
        estimates for the next comparison.  Shards are visited inside
        the row-tile loop (contiguous sub-tiles carved from the flat
        tile buffers) and the over-epsilon comparison runs only after a
        *full* row tile, so ``worst`` takes exactly the unsharded tile
        maxima and the decision sequence is invariant in the shard
        count.  Returns ``(worst, all_below)``; ``all_below`` can only
        be True when ``have_prev`` was.
        """
        n = ws.n
        blk = ws.blk
        prev = ws.prev
        bounds = ws.bounds
        san = self.sanitizer
        eps = self.epsilon
        xslot = (-step) % 3
        wslot = (1 - step) % 3
        xf = ws.xt.ravel()
        wf = ws.wt.ravel()
        nf = ws.num.ravel()
        df = ws.den.ravel()
        worst = 0.0
        all_below = have_prev
        scanning = have_prev
        for lo in range(0, n, blk):
            hi = min(lo + blk, n)
            m = hi - lo
            tile_worst = 0.0
            for si in range(ws.shards):
                c0, c1 = bounds[si], bounds[si + 1]
                pc = c1 - c0
                xt = xf[: m * pc].reshape(m, pc)
                wt = wf[: m * pc].reshape(m, pc)
                self._estimate_tile(ws, si, xslot, wslot, lo, hi, xt, wt)
                if san is not None:
                    san.check_finite("estimates x/w", xt, step=step)
                psub = prev[lo:hi, c0:c1]
                if scanning:
                    num = nf[: m * pc].reshape(m, pc)
                    den = df[: m * pc].reshape(m, pc)
                    np.subtract(xt, psub, out=num)
                    np.abs(num, out=num)
                    np.maximum(psub, _REL_FLOOR, out=den)
                    num /= den
                    tile_worst = max(tile_worst, float(num.max()))
                psub[...] = xt
            if scanning:
                worst = max(worst, tile_worst)
                if worst > eps:
                    all_below = False
                    scanning = False
        return worst, all_below

    def _best_effort_estimates(self, ws: SparseWorkspace) -> None:
        """Guarded estimates into ``prev`` (budget-exhaustion path).

        Outside the hot loop: runs once when the step budget runs out
        before W is positive everywhere, so NaN-masking temporaries are
        acceptable here.  Reads the normalized ``[X, W, out]`` slot
        order (the step loop restores it before calling).
        """
        n = ws.n
        blk = ws.blk
        bounds = ws.bounds
        xf = ws.xt.ravel()
        wf = ws.wt.ravel()
        for lo in range(0, n, blk):
            hi = min(lo + blk, n)
            m = hi - lo
            for si in range(ws.shards):
                c0, c1 = bounds[si], bounds[si + 1]
                pc = c1 - c0
                xt = xf[: m * pc].reshape(m, pc)
                wt = wf[: m * pc].reshape(m, pc)
                dense = ws.dense[si]
                if ws.dense_on[si] and dense is not None:
                    np.copyto(xt, dense[0][lo:hi])
                    np.copyto(wt, dense[1][lo:hi])
                else:
                    self._gather_tile(ws, ws.shard_pools[si][0], lo, hi, xt)
                    self._gather_tile(ws, ws.shard_pools[si][1], lo, hi, wt)
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(xt, wt, out=xt)
                xt[wt <= 0.0] = np.nan
                ws.prev[lo:hi, c0:c1] = xt

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SynchronousGossipEngine(n={self.n}, mode={self.mode!r}, "
            f"epsilon={self.epsilon})"
        )
