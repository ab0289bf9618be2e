"""Buffer backends and pooled CSR storage for the gossip kernels.

The step loop of
:class:`~repro.gossip.engine.SynchronousGossipEngine` runs over
*preallocated* buffers (lint rule GT002 forbids allocations inside
its hot-marked regions).  This module owns where those buffers
physically live and how they grow:

* :class:`BufferBackend` — the allocation strategy behind a workspace.
  Three implementations:

  - :class:`PrivateBuffers` (default) — ordinary process-private
    ``np.empty`` pages;
  - :class:`SharedMemoryBuffers` — POSIX shared-memory segments
    (:mod:`multiprocessing.shared_memory`), so a sweep worker or the
    service layer can :meth:`~SharedMemoryBuffers.attach` the *same*
    physical workspace instead of copying it across the process
    boundary (each array's segment is listed in the backend's
    :meth:`~SharedMemoryBuffers.manifest`);
  - :class:`MemmapBuffers` — ``np.memmap`` files under a spill
    directory, so a larger-than-comfortable workspace is backed by
    disk pages the OS can evict instead of anonymous memory that
    counts fully against RSS.

* :class:`CsrPool` — one CSR matrix held in backend-allocated
  ``indptr``/``indices``/``data`` arrays whose capacity grows
  *geometrically* (:meth:`CsrPool.ensure`) and never per step: the
  sync engine's SpGEMM writes into a pool sized by the closed-form
  output bound ``min(2 * nnz, n * p)``, so a whole gossip cycle incurs
  at most ``O(log(n * p))`` growth reallocations.

Both non-private backends support *attach-by-manifest*: the creating
process lists ``label -> (segment name / file path, shape, dtype)``
via ``manifest()`` and another process maps the same physical pages
with :func:`attach_array` — the sync engine's shard step workers
and the sweep runner's shared-input initializer both ride on this.

Backends are selected by name (``workspace_backend=`` on the engine,
forwarded by the factory) via :func:`make_backend`.
"""

from __future__ import annotations

import os
import secrets
import tempfile
from multiprocessing import shared_memory as _shm
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.errors import ConfigurationError, ValidationError

__all__ = [
    "BufferBackend",
    "PrivateBuffers",
    "SharedMemoryBuffers",
    "MemmapBuffers",
    "make_backend",
    "attach_array",
    "max_pool_columns",
    "min_shards_for",
    "CsrPool",
    "BACKEND_NAMES",
]

#: registered backend names accepted by :func:`make_backend`
BACKEND_NAMES = ("private", "shared", "memmap")

#: dtype of every CSR index array in the pools (one dtype keeps scipy's
#: C kernels on a single dispatch; n * p is validated against its range)
INDEX_DTYPE = np.int32


class BufferBackend:
    """Allocation strategy for workspace buffers.

    Subclasses implement :meth:`empty`; :meth:`close` releases whatever
    the backend holds (segments, spill files).  The base class is the
    private (ordinary heap) backend.
    """

    #: registry name of this backend
    name = "private"

    def empty(
        self, shape: Union[int, Tuple[int, ...]], dtype: "np.dtype | type", label: str = ""
    ) -> np.ndarray:
        """An uninitialized array of ``shape``/``dtype`` on this backend.

        ``label`` is a debugging/manifest hint; private buffers ignore
        it.
        """
        return np.empty(shape, dtype=dtype)

    def close(self) -> None:
        """Release backend resources (no-op for private buffers)."""

    def manifest(self) -> Dict[str, Tuple[str, Tuple[int, ...], str]]:
        """``label -> (ref, shape, dtype str)`` for :func:`attach_array`.

        Private buffers live in one process only, so their manifest is
        empty; shared-memory and memmap backends list every array they
        allocated.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class PrivateBuffers(BufferBackend):
    """Ordinary process-private heap allocations (the default)."""


class SharedMemoryBuffers(BufferBackend):
    """Workspace buffers carved out of POSIX shared-memory segments.

    Every :meth:`empty` call creates one named
    :class:`multiprocessing.shared_memory.SharedMemory` segment and
    returns an ndarray view over it.  :meth:`manifest` lists
    ``label -> (segment name, shape, dtype)`` so another process can
    map the *same* physical pages with :meth:`attach` — the sweep
    runner and the service layer read a workspace without copying it.

    The creating process owns the segments: :meth:`close` unmaps *and
    unlinks* them.  Attached arrays (from :meth:`attach`) keep their
    segment alive only as long as the returned keeper object.
    """

    name = "shared"

    def __init__(self, prefix: Optional[str] = None) -> None:
        # A short random prefix keeps concurrent engines from colliding
        # in the system-wide segment namespace.
        self._prefix = prefix if prefix is not None else f"repro-{secrets.token_hex(4)}"
        self._count = 0
        self._segments: List["_shm.SharedMemory"] = []
        self._manifest: Dict[str, Tuple[str, Tuple[int, ...], str]] = {}

    def empty(
        self, shape: Union[int, Tuple[int, ...]], dtype: "np.dtype | type", label: str = ""
    ) -> np.ndarray:
        shape_t = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape_t)) * dt.itemsize)
        name = f"{self._prefix}-{self._count}"
        self._count += 1
        seg = _shm.SharedMemory(create=True, size=nbytes, name=name)
        self._segments.append(seg)
        key = label or name
        self._manifest[key] = (name, shape_t, dt.str)
        return np.ndarray(shape_t, dtype=dt, buffer=seg.buf)

    def manifest(self) -> Dict[str, Tuple[str, Tuple[int, ...], str]]:
        """``label -> (segment name, shape, dtype str)`` for :meth:`attach`."""
        return dict(self._manifest)

    @staticmethod
    def attach(
        name: str, shape: Tuple[int, ...], dtype: str
    ) -> Tuple[np.ndarray, "_shm.SharedMemory"]:
        """Map an existing segment; returns ``(array, keeper)``.

        The keeper must stay referenced while the array is used, and
        ``keeper.close()`` unmaps it (the owner unlinks).
        """
        seg = _shm.SharedMemory(name=name)
        return np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=seg.buf), seg

    def close(self) -> None:
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []
        self._manifest = {}


class MemmapBuffers(BufferBackend):
    """Workspace buffers backed by memory-mapped spill files.

    Each :meth:`empty` maps one file under ``directory`` (a fresh
    temporary directory by default).  Mapped pages are file-backed, so
    the OS can write them out under memory pressure instead of holding
    the whole workspace in anonymous RSS — the large-n relief valve
    when even the sparse pools exceed the budget.  :meth:`close`
    deletes the spill files.
    """

    name = "memmap"

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is None:
            self._tmpdir: Optional[tempfile.TemporaryDirectory] = (
                tempfile.TemporaryDirectory(prefix="repro-ws-")
            )
            self._dir = self._tmpdir.name
        else:
            self._tmpdir = None
            self._dir = directory
        self._count = 0
        self._paths: List[str] = []
        self._manifest: Dict[str, Tuple[str, Tuple[int, ...], str]] = {}

    @property
    def directory(self) -> str:
        """The spill directory holding the mapped files."""
        return self._dir

    def empty(
        self, shape: Union[int, Tuple[int, ...]], dtype: "np.dtype | type", label: str = ""
    ) -> np.ndarray:
        shape_t = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        suffix = f"-{label}" if label else ""
        path = os.path.join(self._dir, f"buf-{self._count}{suffix}.mm")
        self._count += 1
        self._paths.append(path)
        dt = np.dtype(dtype)
        self._manifest[label or os.path.basename(path)] = (path, shape_t, dt.str)
        return np.memmap(path, dtype=dt, mode="w+", shape=shape_t)

    def manifest(self) -> Dict[str, Tuple[str, Tuple[int, ...], str]]:
        """``label -> (file path, shape, dtype str)`` for :func:`attach_array`."""
        return dict(self._manifest)

    @staticmethod
    def attach(path: str, shape: Tuple[int, ...], dtype: str) -> np.ndarray:
        """Map an existing spill file read-write (same physical pages)."""
        return np.memmap(path, dtype=np.dtype(dtype), mode="r+", shape=tuple(shape))

    def close(self) -> None:
        for path in self._paths:
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._paths = []
        self._manifest = {}
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


def attach_array(
    backend_name: str, entry: Tuple[str, Tuple[int, ...], str]
) -> Tuple[np.ndarray, object]:
    """Map one manifest entry from another process; ``(array, keeper)``.

    ``entry`` is a ``(ref, shape, dtype str)`` triple from a backend's
    ``manifest()``.  The keeper must stay referenced while the array is
    used: for ``"shared"`` it is the :class:`SharedMemory` handle (its
    ``close()`` unmaps; only the owner unlinks), for ``"memmap"`` the
    memmap itself (the file's lifetime belongs to the owner).
    """
    ref, shape, dtype = entry
    if backend_name == "shared":
        return SharedMemoryBuffers.attach(ref, tuple(shape), dtype)
    if backend_name == "memmap":
        arr = MemmapBuffers.attach(ref, tuple(shape), dtype)
        return arr, arr
    raise ConfigurationError(
        f"backend {backend_name!r} does not support attach-by-manifest "
        "(only 'shared' and 'memmap' do)"
    )


def max_pool_columns(n: int) -> int:
    """The widest CSR pool (columns) that keeps ``n * cols`` in int32 range."""
    return max(1, (int(np.iinfo(INDEX_DTYPE).max) - 1) // max(1, int(n)))


def min_shards_for(n: int, cols: int) -> int:
    """The fewest column shards splitting ``cols`` under the int32 guard."""
    per_shard = max_pool_columns(n)
    return -(-int(cols) // per_shard)  # ceil division


def make_backend(spec: Union[str, BufferBackend, None]) -> BufferBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` and ``"private"`` give plain heap buffers; ``"shared"``
    gives POSIX shared memory; ``"memmap"`` gives file-backed maps.
    """
    if spec is None:
        return PrivateBuffers()
    if isinstance(spec, BufferBackend):
        return spec
    if spec == "private":
        return PrivateBuffers()
    if spec == "shared":
        return SharedMemoryBuffers()
    if spec == "memmap":
        return MemmapBuffers()
    raise ConfigurationError(
        f"unknown workspace backend {spec!r}; known: {', '.join(BACKEND_NAMES)}"
    )


class CsrPool:
    """One CSR matrix in preallocated, geometrically grown arrays.

    The sync engine's CSR state matrices (X, W and their SpGEMM output)
    each live in one pool: a fixed ``indptr`` of ``n + 1`` int32s plus
    ``indices``/``data`` arrays whose *capacity* only ever grows — by
    doubling, clamped to the ``n * p`` full-occupancy ceiling — so a
    cycle's step loop performs no per-step allocations.  ``nnz`` tracks
    how much of the capacity is live.
    """

    __slots__ = (
        "n", "cols", "label", "indptr", "indices", "data", "nnz",
        "guard", "_backend", "_dtype",
    )

    def __init__(
        self,
        n: int,
        cols: int,
        capacity: int,
        dtype: "np.dtype | type",
        backend: BufferBackend,
        label: str = "pool",
    ) -> None:
        if int(n) * int(cols) >= np.iinfo(INDEX_DTYPE).max:
            fit = max_pool_columns(n)
            raise ValidationError(
                f"CSR pool of shape ({n}, {cols}) needs {int(n) * int(cols)} "
                f"int32-indexed entries (>= 2**31 - 1 limit); at n = {n} a "
                f"pool holds at most {fit} columns — shard the {cols} probe "
                f"columns across >= {min_shards_for(n, cols)} shards "
                f"(shards={min_shards_for(n, cols)})"
            )
        self.n = int(n)
        self.cols = int(cols)
        self.label = label
        self._backend = backend
        self._dtype = np.dtype(dtype)
        capacity = max(1, min(int(capacity), self.full_capacity))
        self.indptr = backend.empty(self.n + 1, INDEX_DTYPE, f"{label}-indptr")
        self.indptr[0] = 0
        self.indices = backend.empty(capacity, INDEX_DTYPE, f"{label}-indices")
        self.data = backend.empty(capacity, self._dtype, f"{label}-data")
        self.nnz = 0
        #: optional shadow-ownership sanitizer hook (REPRO_SANITIZE=1):
        #: a ShardOwnershipGuard this pool reports parent-side writes to
        self.guard = None

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
        if self.guard is not None:
            self.guard.check_parent_write(self.label, what="ensure/grow")
        new_cap = min(max(needed, 2 * self.capacity), self.full_capacity)
        self.indices = self._backend.empty(new_cap, INDEX_DTYPE, f"{self.label}-indices")
        self.data = self._backend.empty(new_cap, self._dtype, f"{self.label}-data")

    def release(self) -> None:
        """Shrink ``indices``/``data`` to one-element stubs, freeing them.

        Called by the serial step loop after a shard's dense
        handoff, when the CSR state has been gathered into dense slot
        arrays and the pool's capacity is dead weight.  The pool stays
        loadable — the next :meth:`load`/:meth:`ensure` simply regrows
        from the stub.  Only meaningful on the private backend (the
        engine gates on it): releasing manifest-listed arrays would
        orphan segments that attached processes still map.
        """
        if self.guard is not None:
            self.guard.check_parent_write(self.label, what="release")
        self.indices = self._backend.empty(1, INDEX_DTYPE, f"{self.label}-indices")
        self.data = self._backend.empty(1, self._dtype, f"{self.label}-data")
        self.indptr[0] = 0
        self.nnz = 0

    def load(self, mat: sparse.csr_matrix) -> None:
        """Copy a scipy CSR matrix into the pool (casting dtypes)."""
        if mat.shape != (self.n, self.cols):
            raise ValidationError(
                f"matrix shape {mat.shape} does not fit pool ({self.n}, {self.cols})"
            )
        if self.guard is not None:
            self.guard.check_parent_write(self.label, what="load")
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
