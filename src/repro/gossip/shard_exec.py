"""Worker-side executor of sharded sparse gossip steps.

The sync engine's column shards are independent by construction: the
per-step mixing matrix ``M = 0.5*(I + A)`` acts on *rows*, so stepping
a column shard needs no data from any other shard.  This module is the
process-parallel half of that design.  The parent engine allocates the
per-shard :class:`~repro.gossip.memory.CsrPool` triples on a
``"shared"`` or ``"memmap"`` workspace backend, publishes the backend's
manifest to a ``ProcessPoolExecutor`` initializer
(:func:`init_worker`), and each worker process *attaches* every pool
array by reference — no n-sized state is pickled, copied, or rebuilt
per task.  Per check window the parent writes the window's partner
draws into the shared ``targets`` buffer and submits one
:func:`advance_shard` task per shard; no two concurrent tasks ever
touch the same shard, so the pools need no locking.

Pool rotation is by arithmetic, not shared mutable state: after ``s``
completed steps shard state lives at slot ``(-s) % 3`` (X),
``(1 - s) % 3`` (W) and ``(2 - s) % 3`` (free scratch), so a worker
resuming at ``start_step`` knows exactly which arrays to read and
write.  Workers do not track ``nnz`` — parallel-mode pools are
preallocated at the full ``n * p_shard`` occupancy ceiling (growth
would allocate process-private arrays invisible to the manifest) and
``csr_matmat`` reads its extents from ``indptr``; the parent refreshes
the live ``nnz`` counters from ``indptr[n]`` after each window.

:func:`fill_mixing` is also the mixing-matrix layout of the engine's
serial CSR steps, so serial and worker stepping run byte-identical code
over the same RNG-derived targets.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.sanitizer import ShardOwnershipGuard
from repro.gossip.memory import attach_array

try:  # the C SpGEMM kernel behind scipy's csr @ csr
    from scipy.sparse._sparsetools import csr_matmat as _csr_matmat
except ImportError:  # pragma: no cover - very old scipy
    _csr_matmat = None

__all__ = ["fill_mixing", "workspace_spec", "init_worker", "advance_shard"]

#: CSR arrays of one pool as seen by a worker: (indptr, indices, data)
PoolArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: per-process attached state, set once by :func:`init_worker`
_CTX: Dict[str, Any] = {}

_POOL_PARTS = ("indptr", "indices", "data")


# hot: per-step CSR layout of M = 0.5*(I + A) — shared by engine and workers
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
    order the engine's sort-free dense step sums them in, so CSR and
    dense stepping agree bitwise.  ``M`` always has exactly ``2n``
    entries and its values are the constant 0.5 vector, so only
    ``m_indptr`` and ``m_indices`` are written here.
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


def workspace_spec(ws: Any) -> Dict[str, Any]:
    """The picklable attach recipe of a sharded sparse workspace.

    Resolves every pool array (plus the shared ``targets`` buffer)
    through the backend's manifest so :func:`init_worker` can map the
    same physical pages from another process.  ``ws`` is a
    :class:`~repro.gossip.engine.SparseWorkspace` (typed loosely to
    keep this module import-light for worker processes).
    """
    manifest = ws.backend.manifest()
    pools: List[List[Dict[str, Any]]] = []
    for triple in ws.shard_pools:
        pools.append(
            [{part: manifest[f"{pool.label}-{part}"] for part in _POOL_PARTS}
             for pool in triple]
        )
    spec = {
        "backend": ws.backend.name,
        "n": ws.n,
        "dtype": ws.dtype.str,
        "shard_cols": [triple[0].cols for triple in ws.shard_pools],
        "pools": pools,
        "targets": manifest["targets"],
    }
    if getattr(ws, "guard", None) is not None:
        # REPRO_SANITIZE=1: ship the shadow-ownership epoch map so the
        # worker-side guard observes the same cells as the parent's.
        spec["ownership"] = manifest["ownership"]
    return spec


def init_worker(spec: Dict[str, Any]) -> None:
    """Executor initializer: attach every shard's pools by manifest.

    Runs once per worker process.  Attaches the three CSR pools of
    *every* shard (tasks pick their shard by index) and the shared
    partner-draw buffer, and builds the only process-private state a
    worker needs: one ``2n``-entry mixing-matrix scratch set.  Keeper
    objects are retained for the process lifetime so the mapped
    segments stay valid.
    """
    backend = spec["backend"]
    n = int(spec["n"])
    dt = np.dtype(spec["dtype"])
    keepers: List[object] = []

    def _get(entry: Tuple[str, Tuple[int, ...], str]) -> np.ndarray:
        arr, keeper = attach_array(backend, entry)
        keepers.append(keeper)
        return arr

    shards: List[List[PoolArrays]] = []
    for pool_entries in spec["pools"]:
        shards.append(
            [(_get(ent["indptr"]), _get(ent["indices"]), _get(ent["data"]))
             for ent in pool_entries]
        )
    targets = _get(spec["targets"])
    guard = (
        ShardOwnershipGuard(_get(spec["ownership"]))
        if spec.get("ownership") is not None
        else None
    )
    m_indptr = np.zeros(n + 1, dtype=np.int32)
    m_data = np.empty(2 * n, dtype=dt)
    m_data.fill(0.5)
    _CTX.clear()
    _CTX.update(
        n=n,
        shards=shards,
        shard_cols=[int(c) for c in spec["shard_cols"]],
        targets=targets,
        keepers=keepers,
        guard=guard,
        ids=np.arange(n),
        m_indptr=m_indptr,
        m_indices=np.empty(2 * n, dtype=np.int32),
        m_data=m_data,
    )


# hot: worker shard step loop — two attached-pool SpGEMMs per step
def advance_shard(
    shard: int,
    start_step: int,
    window: int,
    perm: Tuple[int, int, int] = (0, 1, 2),
    ticket: int = 0,
) -> int:
    """Step one shard through ``window`` gossip steps; returns ``shard``.

    For each step ``s`` the worker lays the mixing matrix out from the
    shared ``targets`` row, then runs the two SpGEMMs of the rotation:
    new X into the free slot, new W into the slot X just vacated.  All
    six CSR arrays live in the attached (shared) pools, so the parent
    sees the results without any transfer.  ``perm`` maps the parent's
    logical slot indices onto the attach-order pool list — the parent
    re-sorts its pool triples to [X, W, out] between cycles, while a
    worker's attached view keeps creation order for its whole lifetime.

    Under ``REPRO_SANITIZE=1`` the parent passes the window's ownership
    ``ticket`` and the task claims its shard's shadow-ownership cells
    before touching the pools — an overlapping dispatch raises
    :class:`~repro.errors.InvariantViolation` instead of racing.
    """
    ctx = _CTX
    guard: "ShardOwnershipGuard | None" = ctx.get("guard")
    if guard is not None and ticket:
        guard.claim(shard, ticket, step=start_step)
    n: int = ctx["n"]
    cols: int = ctx["shard_cols"][shard]
    pools: List[PoolArrays] = ctx["shards"][shard]
    ids = ctx["ids"]
    targets = ctx["targets"]
    m_indptr = ctx["m_indptr"]
    m_indices = ctx["m_indices"]
    m_data = ctx["m_data"]
    for t in range(window):
        s = start_step + t
        fill_mixing(targets[t], ids, m_indptr, m_indices)
        src_x = pools[perm[(-s) % 3]]
        src_w = pools[perm[(1 - s) % 3]]
        out = pools[perm[(2 - s) % 3]]
        _csr_matmat(
            n, cols, m_indptr, m_indices, m_data,
            src_x[0], src_x[1], src_x[2],
            out[0], out[1], out[2],
        )
        _csr_matmat(
            n, cols, m_indptr, m_indices, m_data,
            src_w[0], src_w[1], src_w[2],
            src_x[0], src_x[1], src_x[2],
        )
    return shard
