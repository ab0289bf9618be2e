"""Sync-engine step-loop contract against the reference oracle.

The engine's one step loop (sort-free dense slot steps from step 0,
check cadence) and the reference oracle in
``tests/sync_oracle.py`` (per-step ``sparse.csr_matrix`` construction
and the ``0.5*(X + A@X)`` allocation chain) consume the same partner
RNG stream, so on a seeded instance they must walk the same
mixing-matrix sequence: identical step counts at per-step checks,
matching results up to floating-point accumulation order.

Everything the engine varies internally — column-block (thread)
count, column-tile count, workspace reuse, check-tile height — must be
*bitwise* invisible in the results.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import ConvergenceError, InvariantViolation, ValidationError
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip import engine as engine_mod
from repro.gossip.base import exact_aggregate
from repro.gossip.convergence import average_relative_error
from repro.gossip.engine import SynchronousGossipEngine
from repro.gossip.factory import make_engine
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngStreams
from tests.sync_oracle import oracle_cycle

SEED = 0
N = 128
EPSILON = 1e-4


def _instance(n):
    S = synthetic_trust_matrix(n, rng=RngStreams(SEED).get("matrix"))
    v = np.full(n, 1.0 / n)
    return S, v


def _cycle(n, S, v, **options):
    eng = make_engine("sync", n=n, rng=RngStreams(SEED), epsilon=EPSILON, **options)
    return eng.run_cycle(S, v)


def _pin_cores(monkeypatch, cores):
    """Make the engine step test-size cycles in ``cores`` column blocks.

    Pins the usable cores and drops the per-thread column and work
    floors, which keep this file's sizes on fewer threads otherwise, so
    the blocks step on the calling thread plus ``cores - 1`` pool
    threads on any machine.
    """
    monkeypatch.setattr(engine_mod, "_usable_cores", lambda: cores)
    monkeypatch.setattr(engine_mod, "_MIN_SHARD_COLUMNS", 1)
    monkeypatch.setattr(engine_mod, "_MIN_SHARD_ELEMENTS", 1)


def _pin_tiles(monkeypatch, n, width, tiles, dtype="float64"):
    """Make the engine cut each ``width``-column block into ``tiles`` tiles.

    Shrinks the tile budget to ``ceil(width / tiles)`` columns of ``n``
    rows and the tile floor to 2 columns (NumPy sums a lone column
    pairwise, so one-column tiles would not reduce row by row).
    """
    fit = -(-width // tiles)
    monkeypatch.setattr(engine_mod, "_TILE_BYTES", 3 * n * np.dtype(dtype).itemsize * fit)
    monkeypatch.setattr(engine_mod, "_MIN_TILE_COLUMNS", 2)


def _cadence(monkeypatch, k):
    """Run the engine's convergence check every ``k`` steps."""
    monkeypatch.setattr(SynchronousGossipEngine, "check_every", k)


def _oracle(n, S, v, *, mode="full", check_every=1):
    """The oracle on the engine's partner stream: ``(means, steps, cols)``.

    Probe mode tracks the columns a fresh engine on the same seed picks.
    """
    cols = None
    if mode == "probe":
        picker = SynchronousGossipEngine(
            n, mode="probe", rng=RngStreams(SEED).get("gossip")
        )
        cols = picker._pick_probe_columns(v, exact_aggregate(S, v, n))
    means, steps = oracle_cycle(
        S, v, RngStreams(SEED).get("gossip"), cols=cols,
        epsilon=EPSILON, check_every=check_every,
    )
    return means, steps, cols


class TestFastVsLegacy:
    """The engine against the reference oracle (``tests/sync_oracle.py``)."""

    def test_same_steps_and_scores(self, monkeypatch):
        """Same stream, same stop step; scores equal up to fp reordering."""
        S, v = _instance(N)
        _cadence(monkeypatch, 1)
        res = _cycle(N, S, v, mode="full")
        means, steps, _ = _oracle(N, S, v)
        assert res.converged
        assert res.steps == steps
        np.testing.assert_allclose(res.v_next, means, rtol=1e-12)
        assert res.gossip_error == pytest.approx(
            average_relative_error(means, res.exact), rel=1e-6
        )

    def test_coarse_cadence_never_overshoots_legacy(self):
        """At check_every > 1 the engine's fine phase resolves the stop
        step at per-step granularity, so it stops no later than the
        oracle's coarse-aligned stop — and both land on the same answer
        within the epsilon target."""
        S, v = _instance(N)
        assert SynchronousGossipEngine.check_every == 8
        res = _cycle(N, S, v, mode="full")
        means, steps, _ = _oracle(N, S, v, check_every=8)
        assert res.converged
        assert res.steps <= steps
        np.testing.assert_allclose(res.v_next, means, rtol=1e-4)

    def test_probe_mode_agrees_with_full(self):
        """Probe and full share the partner stream -> same step count."""
        S, v = _instance(N)
        full = _cycle(N, S, v, mode="full")
        probe = _cycle(N, S, v, mode="probe")
        assert probe.steps == full.steps
        assert probe.converged and full.converged
        # probe's v_next is the documented exact substitution
        np.testing.assert_allclose(probe.v_next, full.exact, rtol=1e-12)


class TestCheckEveryCadence:
    def test_result_invariant_modulo_granularity(self, monkeypatch):
        """check_every in {1, 4} lands on the same answer.

        The coarse cadence measures the residual over a longer window
        (a stricter criterion), so step counts may differ by a few
        steps of granularity — but both must converge, to scores that
        agree far below the epsilon target.
        """
        S, v = _instance(256)
        _cadence(monkeypatch, 1)
        r1 = _cycle(256, S, v, mode="full")
        _cadence(monkeypatch, 4)
        r4 = _cycle(256, S, v, mode="full")
        assert r1.converged and r4.converged
        assert abs(r4.steps - r1.steps) <= 8
        np.testing.assert_allclose(r4.v_next, r1.v_next, rtol=1e-4)
        assert r1.gossip_error < EPSILON and r4.gossip_error < EPSILON

    def test_validation(self):
        with pytest.raises(ValidationError):
            SynchronousGossipEngine(8, mode="warp")
        with pytest.raises(ValidationError):
            SynchronousGossipEngine(8, max_steps=0)


class TestBudget:
    def test_budget_exhaustion_raises(self):
        S, v = _instance(N)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="full", max_steps=3,
        )
        with pytest.raises(ConvergenceError):
            eng.run_cycle(S, v)


class TestExactAggregate:
    """The shared oracle helper: S^T v from any trust-matrix form."""

    def test_all_input_forms_agree(self):
        S, v = _instance(N)
        assert isinstance(S, TrustMatrix)
        csr = S.sparse()
        dense = csr.toarray()
        expected = np.asarray(csr.T @ v).ravel()
        for form in (S, csr, dense):
            np.testing.assert_allclose(
                exact_aggregate(form, v, N), expected, rtol=1e-12
            )


class TestWorkspaceReuse:
    """The persistent cycle workspace must be invisible in the results."""

    @pytest.mark.parametrize("mode", ["full", "probe"])
    def test_reuse_matches_fresh_step_for_step(self, mode):
        """Workspace-reuse runs equal fresh-workspace runs, cycle by cycle."""
        S, v = _instance(N)
        reuse, fresh = (
            make_engine(
                "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON, mode=mode,
            )
            for _ in range(2)
        )
        vr, vf = v.copy(), v.copy()
        for _ in range(3):
            rr = reuse.run_cycle(S, vr)
            fresh.invalidate_workspace()
            rf = fresh.run_cycle(S, vf)
            assert rr.steps == rf.steps
            np.testing.assert_array_equal(rr.v_next, rf.v_next)
            assert rr.gossip_error == rf.gossip_error
            vr = rr.v_next / rr.v_next.sum()
            vf = rf.v_next / rf.v_next.sum()

    def test_repeated_cycles_on_one_engine_are_deterministic(self):
        """Two engines with the same seed agree even though one has a
        warm (already-written) workspace by its second cycle."""
        S, v = _instance(N)
        a = make_engine("sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON, mode="full")
        b = make_engine("sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON, mode="full")
        va, vb = v.copy(), v.copy()
        for _ in range(3):
            ra = a.run_cycle(S, va)
            rb = b.run_cycle(S, vb)
            np.testing.assert_array_equal(ra.v_next, rb.v_next)
            va = ra.v_next / ra.v_next.sum()
            vb = rb.v_next / rb.v_next.sum()

    def test_workspace_survives_cycles_and_invalidates(self):
        S, v = _instance(N)
        eng = make_engine("sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON, mode="full")
        assert eng.sparse_workspace is None
        eng.run_cycle(S, v)
        ws = eng.sparse_workspace
        assert ws is not None and ws.valid
        eng.run_cycle(S, v)
        assert eng.sparse_workspace is ws  # survived across cycles
        eng.invalidate_workspace()
        assert not ws.valid
        assert eng.sparse_workspace is None
        eng.run_cycle(S, v)
        assert eng.sparse_workspace is not ws  # rebuilt after invalidation


class TestSparseKernel:
    """The step loop's options, buffers and budget paths."""

    @pytest.mark.parametrize("n", [250, 1000])
    @pytest.mark.parametrize("mode", ["probe", "full"])
    def test_parity_with_fast(self, n, mode, monkeypatch):
        """Same stream, per-step checks -> the oracle's stop step and
        scores, in both modes."""
        S, v = _instance(n)
        _cadence(monkeypatch, 1)
        res = _cycle(n, S, v, mode=mode)
        means, steps, cols = _oracle(n, S, v, mode=mode)
        assert res.converged
        assert res.steps == steps
        if mode == "full":
            np.testing.assert_allclose(res.v_next, means, rtol=1e-12)
            exact = res.exact
        else:
            exact = res.exact[cols]
        assert res.gossip_error == pytest.approx(
            average_relative_error(means, exact), rel=1e-9
        )

    def test_block_rows_is_result_invariant(self, monkeypatch):
        """The tile height only tiles the estimate pass — any value
        lands on bit-identical results."""
        S, v = _instance(250)
        base = _cycle(250, S, v, mode="probe")
        for block_rows in (7, 64, 250):
            # p = 64 probe columns: tiles of block_rows rows
            monkeypatch.setattr(engine_mod, "_TILE_ELEMENTS", block_rows * 64)
            blocked = _cycle(250, S, v, mode="probe")
            assert blocked.steps == base.steps
            np.testing.assert_array_equal(blocked.v_next, base.v_next)

    def test_float32_tracks_float64(self):
        """float32 buffers converge to the float64 answer within the
        documented accumulation bound (~steps * eps32 relative, orders
        of magnitude below the epsilon target)."""
        S, v = _instance(250)
        r64 = _cycle(250, S, v, mode="full", dtype="float64")
        r32 = _cycle(250, S, v, mode="full", dtype="float32")
        assert r64.converged and r32.converged
        np.testing.assert_allclose(r32.v_next, r64.v_next, rtol=1e-3)
        assert abs(r32.steps - r64.steps) <= 8  # residuals may flip a check

    @pytest.mark.parametrize("mode", ["probe", "full"])
    def test_warm_start_invariance(self, mode):
        """Reusing the sparse workspace across cycles equals fresh
        buffers, cycle by cycle (the slots carry no state between
        cycles: each cycle rewrites them from X0 and W0)."""
        S, v = _instance(N)
        reuse, fresh = (
            make_engine(
                "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON, mode=mode,
            )
            for _ in range(2)
        )
        vr, vf = v.copy(), v.copy()
        for _ in range(3):
            rr = reuse.run_cycle(S, vr)
            fresh.invalidate_workspace()
            rf = fresh.run_cycle(S, vf)
            assert rr.steps == rf.steps
            np.testing.assert_array_equal(rr.v_next, rf.v_next)
            assert rr.gossip_error == rf.gossip_error
            vr = rr.v_next / rr.v_next.sum()
            vf = rf.v_next / rf.v_next.sum()

    def test_sparse_workspace_lifecycle(self):
        S, v = _instance(N)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON,
        )
        assert eng.sparse_workspace is None
        eng.run_cycle(S, v)
        ws = eng.sparse_workspace
        assert ws is not None and ws.valid
        eng.run_cycle(S, v)
        assert eng.sparse_workspace is ws  # survived across cycles
        eng.invalidate_workspace()
        assert not ws.valid
        assert eng.sparse_workspace is None

    def test_sanitizer_armed_cycle(self):
        """The armed-sanitizer contract (the REPRO_SANITIZE=1 posture)
        holds through the sparse kernel: every mass/nonnegativity check
        fires and the result is unchanged."""
        S, v = _instance(N)
        base = _cycle(N, S, v, mode="probe")
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="probe",
        )
        eng.arm_sanitizer()
        assert eng.sanitizer is not None
        res = eng.run_cycle(S, v)
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert eng.sanitizer.checks > 0

    def test_float32_widens_armed_sanitizer(self):
        """float32 accumulation drift would trip the 1e-9 default; the
        engine arms a widened sanitizer instead."""
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON,
            dtype="float32",
        )
        eng.arm_sanitizer()
        assert eng.sanitizer.rel_tol == pytest.approx(1e-4)
        S, v = _instance(N)
        res = eng.run_cycle(S, v)
        assert res.converged

    def test_budget_exhaustion_raises(self):
        S, v = _instance(N)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="probe", max_steps=3,
        )
        with pytest.raises(ConvergenceError):
            eng.run_cycle(S, v)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SynchronousGossipEngine(8, dtype="float16")

    def test_phase_times_recorded(self):
        S, v = _instance(N)
        res = _cycle(N, S, v, mode="probe")
        phases = res.phase_times
        assert set(phases) == {"setup", "oracle", "alloc", "kernel", "estimate"}
        assert all(t >= 0.0 for t in phases.values())


class TestShardedSparseKernel:
    """Column blocks must be invisible: any block split of the probe
    working set replays the identical step sequence, so steps,
    scores, and gossip error are *bitwise* equal to the one-block run."""

    @pytest.mark.parametrize("n", [250, 1000])
    @pytest.mark.parametrize("mode", ["probe", "full"])
    def test_shard_count_invariance(self, n, mode, monkeypatch):
        S, v = _instance(n)
        _pin_cores(monkeypatch, 1)
        base = _cycle(n, S, v, mode=mode)
        for blocks in (2, 7):
            _pin_cores(monkeypatch, blocks)
            res = _cycle(n, S, v, mode=mode)
            assert res.steps == base.steps
            np.testing.assert_array_equal(res.v_next, base.v_next)
            assert res.gossip_error == base.gossip_error

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_shard_invariance_both_dtypes(self, dtype, monkeypatch):
        S, v = _instance(250)
        _pin_cores(monkeypatch, 1)
        base = _cycle(250, S, v, mode="probe", dtype=dtype)
        _pin_cores(monkeypatch, 7)
        res = _cycle(250, S, v, mode="probe", dtype=dtype)
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert res.gossip_error == base.gossip_error

    def test_sanitizer_armed_sharded(self, monkeypatch):
        """The armed invariant sanitizer passes over split state
        exactly as over one block."""
        S, v = _instance(N)
        _pin_cores(monkeypatch, 1)
        base = _cycle(N, S, v, mode="probe")
        _pin_cores(monkeypatch, 3)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON, mode="probe",
        )
        eng.arm_sanitizer()
        res = eng.run_cycle(S, v)
        assert eng.sparse_workspace.blocks == 3
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert eng.sanitizer.checks > 0

    @pytest.mark.parametrize(
        "n, p, cores, threads",
        [
            (10**5, 64, 2, 2),  # one thread per core
            (10**5, 20, 2, 1),  # too narrow for a second 16-column thread
            (10**5, 64, 8, 4),  # capped at 64 // 16 threads
            (10**6, 64, 2, 2),
            (1000, 1000, 2, 2),
            (250, 250, 2, 1),  # too little work per thread
            (2**29, 64, 2, 2),  # more state adds no threads
            (10, 3, 4, 1),
        ],
    )
    def test_step_threads_follow_cores(self, n, p, cores, threads, monkeypatch):
        monkeypatch.setattr(engine_mod, "_usable_cores", lambda: cores)
        assert engine_mod.step_threads(n, p) == threads

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_one_block_per_thread(self, dtype, monkeypatch):
        """On 2 cores a 64-column n = 10^5 probe workspace holds 2
        column blocks of 32 columns, one per stepping thread, whatever
        the state size; no 32-column tile fits the L2 budget there, so
        each block is one tile with its own slot triple and ``prev``."""
        monkeypatch.setattr(engine_mod, "_usable_cores", lambda: 2)
        eng = SynchronousGossipEngine(10**5, mode="probe", dtype=dtype)
        ws = eng._acquire_sparse_workspace(64)  # np.empty: pages untouched
        assert ws.blocks == engine_mod.step_threads(10**5, 64) == 2
        assert ws.bounds == (0, 32, 64)
        assert ws.tiles == 2 and ws.tile_bounds == ws.bounds
        assert ws.block_tiles == (range(0, 1), range(1, 2))
        assert [[d.shape for d in dense] for dense in ws.dense] == [
            [(10**5, 32)] * 3
        ] * 2
        assert [prev.shape for prev in ws.prev] == [(10**5, 32)] * 2
        assert [c.x.size for c in ws.scratch] == [ws.blk * 32] * 2

    @pytest.mark.parametrize(
        "n, width, itemsize, tiles",
        [
            (1000, 500, 8, 12),  # n = 1000 full on 2 cores: ~42-column tiles
            (1000, 1000, 8, 24),  # ... on one core
            (1000, 500, 4, 6),  # float32: ~83-column tiles
            (1000, 40, 8, 1),  # a second tile would keep < 32 columns
            (5000, 32, 8, 1),  # budget width 8 < 32: never tiled
            (10**5, 32, 8, 1),
            (10**5, 64, 4, 1),
        ],
    )
    def test_block_tiles_fit_the_budget(self, n, width, itemsize, tiles):
        assert engine_mod._block_tiles(n, width, itemsize) == tiles
        if tiles > 1:
            widest = -(-width // tiles)
            assert 3 * n * widest * itemsize <= engine_mod._TILE_BYTES
            assert width // tiles >= engine_mod._MIN_TILE_COLUMNS

    def test_paper_operating_point_layout(self, monkeypatch):
        """n = 1000 full mode on 2 cores: 2 blocks of 500 columns, each
        cut into 12 tiles of 41 or 42 columns whose slots fit the budget."""
        monkeypatch.setattr(engine_mod, "_usable_cores", lambda: 2)
        eng = SynchronousGossipEngine(1000, mode="full")
        ws = eng._acquire_sparse_workspace(1000)
        assert ws.blocks == 2 and ws.tiles == 24
        assert ws.block_tiles == (range(0, 12), range(12, 24))
        assert ws.tile_bounds[12] == 500
        widths = np.diff(ws.tile_bounds)
        assert set(widths.tolist()) == {41, 42}
        for dense, prev in zip(ws.dense, ws.prev):
            assert sum(d.nbytes for d in dense) <= engine_mod._TILE_BYTES
            assert prev.shape == dense[0].shape and prev.flags.c_contiguous

    def test_worst_residual_freezes_at_first_row_tile_over_epsilon(self):
        """The tiles' row-tile maxima combine as one serial blocked scan:
        row by row, the largest over the tiles (a NaN maximum skipped),
        stopping at the first row tile that lifts the worst past
        epsilon — later rows do not raise it."""
        from types import SimpleNamespace

        eng = SynchronousGossipEngine(8, epsilon=1e-4)
        nan = float("nan")
        over = SimpleNamespace(tile_max=np.array([[1e-5, 5e-4, 0.9], [2e-5, nan, 1e-6]]))
        assert eng._worst_residual(over) == (5e-4, False)
        below = SimpleNamespace(tile_max=np.array([[1e-5, 3e-5], [nan, 2e-5]]))
        assert eng._worst_residual(below) == (3e-5, True)

    def test_validation(self):
        """The block count is derived, never passed: the engine takes no
        shard, worker or buffer-backend option."""
        for option in ("shards", "shard_workers", "workspace_backend"):
            with pytest.raises(TypeError, match=option):
                SynchronousGossipEngine(8, **{option: 2})


def _workspace_bytes(ws):
    """Bytes of every array a workspace holds, in lists and tuples too."""

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)

    return sum(
        a.nbytes for name in type(ws).__slots__ for a in arrays(getattr(ws, name))
    )


def _model_extra(ws, n, p, itemsize):
    """The memory model's O(n + blk * p) beyond the ``4 * n * p`` state."""
    return (
        n * itemsize  # half
        + (n + 1) * 8  # cptr
        + ws.tile_max.nbytes  # tiles * ceil(n / blk) float64 maxima
        + 3 * ws.blk * p * itemsize  # check scratch, blk rows per block
    )


class TestDenseHandoff:
    """Every tile steps in its three dense slots from step 0: X0 and W0
    are scattered into them at cycle start, and the workspace holds
    nothing else of size (n, p) but the tiles' ``prev``."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_workspace_bytes_follow_the_memory_model(self, dtype, monkeypatch):
        """After a probe cycle the workspace's arrays take
        ``4 * n * p * itemsize`` bytes (one slot triple and one ``prev``
        per tile; here one tile per block) plus only O(n + blk * p): the
        constant CSC pointer and values, the row-tile maxima and the
        per-block check scratch."""
        n, p = 2000, SynchronousGossipEngine.probe_columns
        S, v = _instance(n)
        _pin_cores(monkeypatch, 3)
        eng = make_engine(
            "sync", n=n, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="probe", dtype=dtype,
        )
        assert eng.run_cycle(S, v).converged
        ws = eng.sparse_workspace
        itemsize = np.dtype(dtype).itemsize
        assert ws.blocks == ws.tiles == len(ws.dense) == len(ws.prev) == 3
        assert len(ws.scratch) == 3
        assert ws.tile_max.size == ws.blocks * -(-n // ws.blk)
        assert _workspace_bytes(ws) == 4 * n * p * itemsize + _model_extra(
            ws, n, p, itemsize
        )
        for b, (dense, prev) in enumerate(zip(ws.dense, ws.prev)):
            shape = (n, ws.bounds[b + 1] - ws.bounds[b])
            assert [d.shape for d in dense] == [shape] * 3
            assert prev.shape == shape

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_tiled_workspace_bytes_follow_the_memory_model(self, dtype, monkeypatch):
        """Column tiles add no state: a full-mode cycle cut into 2 blocks
        of 5 tiles takes the same ``4 * n * p`` plus O(n + blk * p), the
        check scratch still sized per block."""
        n = 300
        S, v = _instance(n)
        _pin_cores(monkeypatch, 2)
        _pin_tiles(monkeypatch, n, 150, 5, dtype)
        eng = make_engine(
            "sync", n=n, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="full", dtype=dtype,
        )
        assert eng.run_cycle(S, v).converged
        ws = eng.sparse_workspace
        itemsize = np.dtype(dtype).itemsize
        assert ws.blocks == len(ws.scratch) == 2
        assert ws.tiles == len(ws.dense) == len(ws.prev) == 10
        assert ws.tile_max.size == ws.tiles * -(-n // ws.blk)
        assert _workspace_bytes(ws) == 4 * n * n * itemsize + _model_extra(
            ws, n, n, itemsize
        )
        for t, (dense, prev) in enumerate(zip(ws.dense, ws.prev)):
            shape = (n, ws.tile_bounds[t + 1] - ws.tile_bounds[t])
            assert [d.shape for d in dense] == [shape] * 3
            assert prev.shape == shape

    def test_handoff_full_mode_and_sanitizer(self, monkeypatch):
        """Full mode exercises the mass/nonnegativity sanitizer checks
        over the dense slots; result matches the oracle to
        accumulation-order rounding."""
        S, v = _instance(N)
        means, steps, _ = _oracle(N, S, v)
        _cadence(monkeypatch, 1)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON, mode="full"
        )
        eng.arm_sanitizer()
        res = eng.run_cycle(S, v)
        assert eng.sanitizer.checks > 0
        assert res.steps == steps
        np.testing.assert_allclose(res.v_next, means, rtol=1e-12)


def _warm_cycles(n, S, v, cycles=2, **options):
    """``cycles`` cycles on one engine, each warm-started from the last."""
    eng = make_engine("sync", n=n, rng=RngStreams(SEED), epsilon=EPSILON, **options)
    results = []
    for _ in range(cycles):
        res = eng.run_cycle(S, v)
        results.append(res)
        v = res.v_next / res.v_next.sum()
    return eng, results


class TestThreadedShards:
    """Column blocks step on threads, one block per usable core, one
    check window per pool round trip.  Each block's arithmetic is the
    serial one, and only the calling thread draws partners, runs the
    sanitizer and combines the check, so the block count is bitwise
    invisible."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", ["full", "probe"])
    def test_thread_count_invariance(self, mode, dtype, monkeypatch):
        """1, 2 and 4 cores land on bitwise-equal warm cycles."""
        S, v = _instance(250)
        runs = {}
        for cores in (1, 2, 4):
            _pin_cores(monkeypatch, cores)
            eng, runs[cores] = _warm_cycles(250, S, v, mode=mode, dtype=dtype)
            assert eng.sparse_workspace.blocks == cores
        for cores in (2, 4):
            for got, want in zip(runs[cores], runs[1]):
                assert got.converged and got.steps == want.steps
                np.testing.assert_array_equal(got.v_next, want.v_next)
                assert got.gossip_error == want.gossip_error

    @pytest.mark.parametrize("mode", ["full", "probe"])
    def test_tile_count_invariance(self, mode, monkeypatch):
        """1, 3 and 7 column blocks on as many threads land on
        bitwise-equal warm cycles."""
        S, v = _instance(250)
        # several check row tiles, so the maxima combine across rows too
        monkeypatch.setattr(engine_mod, "_TILE_ELEMENTS", 4096)
        runs = {}
        for blocks in (1, 3, 7):
            _pin_cores(monkeypatch, blocks)
            eng, runs[blocks] = _warm_cycles(250, S, v, mode=mode)
            assert eng.sparse_workspace.blocks == blocks
        for blocks in (3, 7):
            for got, want in zip(runs[blocks], runs[1]):
                assert got.converged and got.steps == want.steps
                np.testing.assert_array_equal(got.v_next, want.v_next)
                assert got.gossip_error == want.gossip_error
                assert got.node_disagreement == want.node_disagreement

    def test_one_submit_per_thread_group_per_window(self, monkeypatch):
        """A check window costs one pool task per block off the calling
        thread, not one per step."""
        S, v = _instance(250)
        _pin_cores(monkeypatch, 3)
        real = ThreadPoolExecutor(max_workers=2)
        submitted, windows = [], []

        class SpyPool:
            def submit(self, fn, ws, g, *args):
                submitted.append(g)
                return real.submit(fn, ws, g, *args)

        step_group = SynchronousGossipEngine._step_group

        def spy(self, ws, g, *args):
            if g == 0:
                windows.append(args[0])  # the window's first step
            return step_group(self, ws, g, *args)

        monkeypatch.setattr(engine_mod, "_step_pool", lambda workers: SpyPool())
        monkeypatch.setattr(SynchronousGossipEngine, "_step_group", spy)
        try:
            res = _cycle(250, S, v, mode="probe")
        finally:
            real.shutdown()
        assert res.converged
        assert submitted == [1, 2] * len(windows)
        assert len(windows) < res.steps  # several steps per round trip

    def test_sanitizer_flags_nonfinite_estimate_on_calling_thread(self, monkeypatch):
        """An armed sanitizer raises on a NaN estimate injected from
        step 20 on at the first check from there (step 24, as before
        the windowed loop), and every sanitizer call runs on the calling
        thread."""
        S, v = _instance(250)
        _pin_cores(monkeypatch, 3)
        draws = [0]
        next_targets = engine_mod._TargetStream.next
        estimate_tile = SynchronousGossipEngine._estimate_tile

        def counted(self):
            draws[0] += 1
            return next_targets(self)

        def poisoned(self, ws, t, xslot, wslot, lo, hi, xt, *args):
            estimate_tile(self, ws, t, xslot, wslot, lo, hi, xt, *args)
            if draws[0] >= 20 and t == ws.tiles - 1:
                xt[-1, -1] = np.nan

        monkeypatch.setattr(engine_mod._TargetStream, "next", counted)
        monkeypatch.setattr(SynchronousGossipEngine, "_estimate_tile", poisoned)
        eng = make_engine(
            "sync", n=250, rng=RngStreams(SEED), epsilon=EPSILON, mode="probe",
        )
        san = eng.arm_sanitizer()
        callers = set()
        for name in ("check_mass", "check_nonnegative", "check_finite"):
            method = getattr(san, name)

            def on_thread(*args, _method=method, **kwargs):
                callers.add(threading.get_ident())
                return _method(*args, **kwargs)

            monkeypatch.setattr(san, name, on_thread)
        with pytest.raises(InvariantViolation) as info:
            eng.run_cycle(S, v)
        assert eng.sparse_workspace.blocks == 3
        assert info.value.invariant == "finite" and info.value.step == 24
        assert callers == {threading.get_ident()}

    def test_shards_step_on_several_threads(self, monkeypatch):
        S, v = _instance(250)
        idents = set()
        step_group = SynchronousGossipEngine._step_group

        def spy(self, ws, g, *args):
            idents.add(threading.get_ident())
            if g == 0:
                time.sleep(1e-3)  # time for a pool thread to take block 1
            return step_group(self, ws, g, *args)

        monkeypatch.setattr(SynchronousGossipEngine, "_step_group", spy)
        _pin_cores(monkeypatch, 2)
        res = _cycle(250, S, v, mode="probe")
        assert res.converged
        assert threading.get_ident() in idents and len(idents) > 1

    def test_caller_steps_the_shards_no_thread_took(self, monkeypatch):
        """A pool whose threads are all busy never stalls a window: the
        calling thread steps every block still queued, bitwise as
        before."""
        S, v = _instance(250)
        base = _cycle(250, S, v, mode="probe")
        release = threading.Event()
        busy = ThreadPoolExecutor(max_workers=1)
        busy.submit(release.wait, 60)  # bounded, so a bug cannot hang
        _pin_cores(monkeypatch, 2)
        monkeypatch.setattr(engine_mod, "_step_pool", lambda workers: busy)
        try:
            eng = make_engine(
                "sync", n=250, rng=RngStreams(SEED), epsilon=EPSILON, mode="probe",
            )
            res = eng.run_cycle(S, v)
            assert not release.is_set()  # the pool thread never got free
        finally:
            release.set()
            busy.shutdown()
        assert eng.sparse_workspace.blocks == 2
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert res.gossip_error == base.gossip_error

    def test_one_core_steps_without_a_pool(self, monkeypatch):
        """One core steps one block on the calling thread, bitwise as
        two blocks on two threads."""
        S, v = _instance(250)
        _pin_cores(monkeypatch, 2)
        base = _cycle(250, S, v, mode="probe")
        monkeypatch.setattr(engine_mod, "_step_pool", None)  # any use fails
        _pin_cores(monkeypatch, 1)
        eng = make_engine(
            "sync", n=250, rng=RngStreams(SEED), epsilon=EPSILON, mode="probe",
        )
        res = eng.run_cycle(S, v)
        assert eng.sparse_workspace.blocks == 1
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert res.gossip_error == base.gossip_error

    def test_worker_error_propagates_and_engine_recovers(self, monkeypatch):
        """A block window that raises on a pool thread fails the cycle;
        the half-stepped workspace is dropped and the next cycle runs."""
        S, v = _instance(250)
        _pin_cores(monkeypatch, 2)
        failed_on = []
        caller = threading.get_ident()
        step_group = SynchronousGossipEngine._step_group

        def flaky(self, ws, g, *args):
            if g == 0 and not failed_on:
                time.sleep(1e-3)  # time for a pool thread to take block 1
            if g == 1 and not failed_on and threading.get_ident() != caller:
                failed_on.append(threading.get_ident())
                raise RuntimeError("block 1 exploded")
            return step_group(self, ws, g, *args)

        monkeypatch.setattr(SynchronousGossipEngine, "_step_group", flaky)
        eng = make_engine(
            "sync", n=250, rng=RngStreams(SEED), epsilon=EPSILON, mode="probe",
        )
        with pytest.raises(RuntimeError, match="block 1 exploded"):
            eng.run_cycle(S, v)
        assert failed_on and failed_on[0] != caller
        assert eng.sparse_workspace is None  # invalidated, not reused
        res = eng.run_cycle(S, v)
        assert res.converged and np.isfinite(res.gossip_error)
        assert eng.sparse_workspace.blocks == 2

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", ["full", "probe"])
    def test_column_tile_invariance(self, mode, dtype, monkeypatch):
        """1, 2 and 5 column tiles per block, on 1 and 2 blocks, with the
        sanitizer armed, land on bitwise-equal warm cycles.  n = 251
        leaves uneven tiles: full mode's last tile on one block is 51
        columns to the others' 50.  Check row tiles of 16 rows make a
        narrow tile check several per pass, the last one short."""
        n = 251
        S, v = _instance(n)
        p = n if mode == "full" else SynchronousGossipEngine.probe_columns
        monkeypatch.setattr(engine_mod, "_TILE_ELEMENTS", 16 * p)
        runs = {}
        for cores in (1, 2):
            _pin_cores(monkeypatch, cores)
            for tiles in (1, 2, 5):
                _pin_tiles(monkeypatch, n, -(-p // cores), tiles, dtype)
                eng = make_engine(
                    "sync", n=n, rng=RngStreams(SEED), epsilon=EPSILON,
                    mode=mode, dtype=dtype,
                )
                san = eng.arm_sanitizer()
                vc, results = v, []
                for _ in range(2):
                    results.append(eng.run_cycle(S, vc))
                    vc = results[-1].v_next / results[-1].v_next.sum()
                ws = eng.sparse_workspace
                assert ws.blocks == cores and ws.tiles == cores * tiles
                assert san.checks > 0
                runs[cores, tiles] = results
        widths = np.diff(ws.tile_bounds)
        assert widths.min() < widths.max()  # the tiles are uneven
        for key, got_run in runs.items():
            for got, want in zip(got_run, runs[1, 1]):
                assert got.converged and got.steps == want.steps, key
                np.testing.assert_array_equal(got.v_next, want.v_next)
                assert got.gossip_error == want.gossip_error
                assert got.node_disagreement == want.node_disagreement

    def test_sweep_workers_after_threaded_parent_cycle(self):
        """A forked sweep worker gets a pool of its own: after the parent
        has stepped threads, ``run_sweep(workers=2)`` over sync-engine
        points returns the ``workers=1`` values instead of hanging."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.experiments.fig3_gossip_steps import _fig3_point
            from repro.experiments.runner import SweepPoint, run_sweep
            from repro.experiments.synthetic import synthetic_trust_matrix
            from repro.gossip import engine as engine_mod
            from repro.gossip.factory import make_engine
            from repro.utils.rng import RngStreams

            engine_mod._usable_cores = lambda: 2
            engine_mod._MIN_SHARD_ELEMENTS = 1
            eng = make_engine("sync", n=200, rng=RngStreams(0), mode="probe")
            S = synthetic_trust_matrix(200, rng=RngStreams(0).get("matrix"))
            assert eng.run_cycle(S, np.full(200, 1 / 200)).converged
            assert eng.sparse_workspace.blocks == 2
            points = [
                SweepPoint(
                    fn=_fig3_point,
                    kwargs={"n": 200, "epsilon": 1e-4, "cycles_per_point": 2},
                    seed=s,
                )
                for s in range(4)
            ]

            def values(report):
                return [
                    (steps, [r.gossip_error for r in records])
                    for steps, records in report.values()
                ]

            serial = values(run_sweep(points, workers=1))
            assert values(run_sweep(points, workers=2)) == serial, serial
            print("sweep ok")
            """
        )
        repo = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", script], cwd=repo, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the sweep workers too
            proc.communicate()
            pytest.fail("run_sweep(workers=2) hung after a threaded parent cycle")
        assert proc.returncode == 0, out
        assert "sweep ok" in out


class TestColumnStats:
    """``_column_stats`` of a finite estimate matrix (every converged cycle's)."""

    @staticmethod
    def _nan_path(B):
        means = np.nanmean(np.where(np.isfinite(B), B, np.nan), axis=0, dtype=np.float64)
        spread = np.nanmax(np.nanmax(B, axis=0) - np.nanmin(B, axis=0))
        return means, float(spread)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(1000, 64), (300, 300)])
    def test_finite_fast_path_is_bitwise(self, shape, dtype):
        """One tile or uneven column tiles: the unsplit answer, bitwise."""
        B = np.random.default_rng(SEED).random(shape).astype(dtype) + 0.5
        want_means, want_spread = self._nan_path(B)
        cuts = (0, 2, 13, shape[1] // 2, shape[1])
        split = [np.ascontiguousarray(B[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        for tiles in ([B], split):
            means, spread = SynchronousGossipEngine._column_stats(tiles)
            assert means.dtype == want_means.dtype
            np.testing.assert_array_equal(means, want_means)
            assert spread == want_spread

    def test_float32_means_accumulate_in_float64(self):
        # The float32 values summed in float64: a float32 accumulator
        # down 10^6 rows drifts by ~1e-4 relative, the scale of epsilon.
        B = (np.random.default_rng(SEED).random((200_000, 8)) + 0.5).astype(np.float32)
        means, spread = SynchronousGossipEngine._column_stats([B])
        want = B.astype(np.float64).mean(axis=0)
        assert means.dtype == np.float64
        np.testing.assert_allclose(means, want, rtol=1e-12)
        assert spread == float((B.max(axis=0) - B.min(axis=0)).max())
