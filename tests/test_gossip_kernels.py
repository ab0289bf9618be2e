"""Sync-engine step-loop contract against the reference oracle.

The engine's one step loop (pooled CSR warm start, dense handoff,
sort-free dense steps, check cadence) and the reference oracle in
``tests/sync_oracle.py`` (per-step ``sparse.csr_matrix`` construction
and the ``0.5*(X + A@X)`` allocation chain) consume the same partner
RNG stream, so on a seeded instance they must walk the same
mixing-matrix sequence: identical step counts at per-step checks,
matching results up to floating-point accumulation order.

Everything the engine varies internally — shard count, thread count,
workspace reuse, handoff point, tile height — must be *bitwise*
invisible in the results.
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

from repro.errors import ConvergenceError, ValidationError
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip import engine as engine_mod
from repro.gossip.base import exact_aggregate, local_rows
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
    """Make the engine step test-size cycles on ``cores`` threads.

    Pins the usable cores and drops the per-shard work floor, which
    keeps every instance of this file's sizes whole otherwise.
    """
    monkeypatch.setattr(engine_mod, "_usable_cores", lambda: cores)
    monkeypatch.setattr(engine_mod, "_MIN_SHARD_ELEMENTS", 1)


def _force_shards(monkeypatch, shards):
    """Make the engine split its columns into exactly ``shards`` shards.

    The engine derives its shard count from the usable cores and the
    int32 guard (``min_shards_for``, 1 at test sizes); pinning both to
    ``shards`` gives that count on any machine, stepped by the calling
    thread plus ``shards - 1`` pool threads.
    """
    monkeypatch.setattr(engine_mod, "min_shards_for", lambda n, cols: shards)
    _pin_cores(monkeypatch, shards)


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

    def test_same_steps_and_scores(self):
        """Same stream, same stop step; scores equal up to fp reordering."""
        S, v = _instance(N)
        res = _cycle(N, S, v, mode="full", check_every=1)
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
        res = _cycle(N, S, v, mode="full", check_every=8)
        means, steps, _ = _oracle(N, S, v, check_every=8)
        assert res.converged
        assert res.steps <= steps
        np.testing.assert_allclose(res.v_next, means, rtol=1e-4)

    def test_probe_mode_agrees_with_full(self):
        """Probe and full share the partner stream -> same step count."""
        S, v = _instance(N)
        full = _cycle(N, S, v, mode="full")
        probe = _cycle(N, S, v, mode="probe", probe_columns=64)
        assert probe.steps == full.steps
        assert probe.converged and full.converged
        # probe's v_next is the documented exact substitution
        np.testing.assert_allclose(probe.v_next, full.exact, rtol=1e-12)


class TestCheckEveryCadence:
    def test_result_invariant_modulo_granularity(self):
        """check_every in {1, 4} lands on the same answer.

        The coarse cadence measures the residual over a longer window
        (a stricter criterion), so step counts may differ by a few
        steps of granularity — but both must converge, to scores that
        agree far below the epsilon target.
        """
        S, v = _instance(256)
        r1 = _cycle(256, S, v, mode="full", check_every=1)
        r4 = _cycle(256, S, v, mode="full", check_every=4)
        assert r1.converged and r4.converged
        assert abs(r4.steps - r1.steps) <= 8
        np.testing.assert_allclose(r4.v_next, r1.v_next, rtol=1e-4)
        assert r1.gossip_error < EPSILON and r4.gossip_error < EPSILON

    def test_validation(self):
        with pytest.raises(ValidationError):
            SynchronousGossipEngine(8, check_every=0)
        with pytest.raises(ValidationError):
            SynchronousGossipEngine(8, mode="warp")
        with pytest.raises(ValidationError):
            SynchronousGossipEngine(8, max_steps=0)


class TestSparseWarmStart:
    def test_densify_threshold_does_not_change_result(self, monkeypatch):
        """Warm-start steps replay the same mixing matrices in CSR form."""
        S, v = _instance(N)
        warm = _cycle(N, S, v, mode="full")
        monkeypatch.setattr(engine_mod, "_DENSIFY_THRESHOLD", 0.0)
        cold = _cycle(N, S, v, mode="full")
        assert warm.steps == cold.steps
        np.testing.assert_array_equal(warm.v_next, cold.v_next)

    def test_fill_mixing_is_diagonal_first(self):
        """M = 0.5*(I + A) in CSR, each row the diagonal then the
        senders ascending — the dense step's summation order."""
        from scipy import sparse

        n = 7
        ids = np.arange(n)
        targets = np.array([3, 2, 0, 0, 1, 0, 5])
        indptr = np.zeros(n + 1, dtype=np.int32)
        indices = np.empty(2 * n, dtype=np.int32)
        engine_mod.fill_mixing(targets, ids, indptr, indices)
        for r in range(n):
            row = indices[indptr[r] : indptr[r + 1]].tolist()
            assert row == [r, *np.flatnonzero(targets == r).tolist()]
        M = sparse.csr_matrix((np.full(2 * n, 0.5), indices, indptr), shape=(n, n))
        A = sparse.csr_matrix((np.ones(n), (targets, ids)), shape=(n, n))
        expected = 0.5 * (np.eye(n) + A.toarray())
        np.testing.assert_array_equal(M.toarray(), expected)


class TestBudget:
    def test_budget_exhaustion_raises(self):
        S, v = _instance(N)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="full", max_steps=3,
        )
        with pytest.raises(ConvergenceError):
            eng.run_cycle(S, v)

    def test_budget_best_effort(self):
        S, v = _instance(N)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="full", max_steps=3,
        )
        res = eng.run_cycle(S, v, raise_on_budget=False)
        assert not res.converged
        assert res.steps == 3


class TestExactAggregate:
    """The shared oracle helper: S^T v from any trust-matrix form."""

    def test_all_input_forms_agree(self):
        S, v = _instance(N)
        assert isinstance(S, TrustMatrix)
        csr = S.sparse()
        dense = csr.toarray()
        rows = local_rows(S, N)
        expected = np.asarray(csr.T @ v).ravel()
        for form in (S, csr, dense, rows):
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
    def test_parity_with_fast(self, n, mode):
        """Same stream, per-step checks -> the oracle's stop step and
        scores, in both modes."""
        S, v = _instance(n)
        res = _cycle(n, S, v, mode=mode, check_every=1)
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
        buffers, cycle by cycle (the pools carry no state between
        cycles beyond their capacity)."""
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

    def test_budget_best_effort(self):
        S, v = _instance(N)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="probe", max_steps=3,
        )
        res = eng.run_cycle(S, v, raise_on_budget=False)
        assert not res.converged
        assert res.steps == 3
        assert np.all(np.isfinite(res.v_next))  # probe substitutes the oracle

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
        assert set(res.phase_times) >= {"setup", "oracle", "alloc", "kernel"}
        assert all(t >= 0.0 for t in res.phase_times.values())


class TestShardedSparseKernel:
    """Column sharding must be invisible: any shard split of the probe
    working set replays the identical SpGEMM sequence, so steps,
    scores, and gossip error are *bitwise* equal to the unsharded run."""

    @pytest.mark.parametrize("n", [250, 1000])
    @pytest.mark.parametrize("mode", ["probe", "full"])
    def test_shard_count_invariance(self, n, mode, monkeypatch):
        S, v = _instance(n)
        base = _cycle(n, S, v, mode=mode)
        for shards in (2, 7):
            _force_shards(monkeypatch, shards)
            res = _cycle(n, S, v, mode=mode)
            assert res.steps == base.steps
            np.testing.assert_array_equal(res.v_next, base.v_next)
            assert res.gossip_error == base.gossip_error

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_shard_invariance_both_dtypes(self, dtype, monkeypatch):
        S, v = _instance(250)
        base = _cycle(250, S, v, mode="probe", dtype=dtype)
        _force_shards(monkeypatch, 7)
        res = _cycle(250, S, v, mode="probe", dtype=dtype)
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert res.gossip_error == base.gossip_error

    def test_sanitizer_armed_sharded(self, monkeypatch):
        """The armed invariant sanitizer passes over sharded state
        exactly as over the unsharded kernel."""
        S, v = _instance(N)
        base = _cycle(N, S, v, mode="probe")
        _force_shards(monkeypatch, 3)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON, mode="probe",
        )
        eng.arm_sanitizer()
        res = eng.run_cycle(S, v)
        assert eng.sparse_workspace.shards == 3
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert eng.sanitizer.checks > 0

    def test_auto_shard_raise_for_int32_guard(self, monkeypatch):
        """A probe width whose pool would overflow int32 indexing is
        auto-split into the minimum legal shard count."""
        from repro.gossip.memory import min_shards_for

        _pin_cores(monkeypatch, 1)
        eng = SynchronousGossipEngine(2**17)
        assert eng._effective_shards(64) == 1
        assert eng._effective_shards(2**15) == min_shards_for(2**17, 2**15) == 3

    @pytest.mark.parametrize(
        "n, p, cores, shards",
        [
            (10**5, 64, 2, 2),  # one shard per core
            (10**5, 20, 2, 1),  # too narrow for a second 16-column shard
            (10**5, 64, 8, 4),  # capped at 64 // 16 shards
            (10**6, 64, 2, 2),
            (1000, 1000, 2, 2),
            (250, 250, 2, 1),  # too little work per shard for a thread
            (2**17, 2**15, 2, 3),  # the int32 guard wins over the cores
            (10, 3, 4, 1),
        ],
    )
    def test_shard_count_follows_cores(self, n, p, cores, shards, monkeypatch):
        monkeypatch.setattr(engine_mod, "_usable_cores", lambda: cores)
        assert engine_mod.column_shards(n, p) == shards

    def test_validation(self):
        """The shard count is derived, never passed: the engine takes no
        shard, worker or buffer-backend option."""
        for option in ("shards", "shard_workers", "workspace_backend"):
            with pytest.raises(TypeError, match=option):
                SynchronousGossipEngine(8, **{option: 2})


class TestDenseHandoff:
    """Sparse cycles hand shards off to dense slot stepping mid-cycle
    (a sort-free csc_matvecs scatter instead of SpGEMM).  The handoff
    must be bitwise invisible: same accumulation order, absent CSR
    entries become exact dense zeros — so every result must equal the
    pure-CSR path, reached by raising the handoff threshold to 2.0
    (an occupancy no pool can reach)."""

    def test_handoff_fires_and_releases_pools(self, monkeypatch):
        """A converged serial private cycle has handed every shard off
        (convergence needs full W occupancy, far past any threshold)
        and shrunk the CSR pools to stubs."""
        S, v = _instance(250)
        _force_shards(monkeypatch, 2)
        eng = make_engine(
            "sync", n=250, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="probe",
        )
        res = eng.run_cycle(S, v)
        assert res.converged
        ws = eng.sparse_workspace
        assert all(ws.dense_on)
        for si, triple in enumerate(ws.shard_pools):
            assert ws.dense[si] is not None
            assert all(d.shape == (250, triple[0].cols) for d in ws.dense[si])
            assert all(pool.capacity == 1 for pool in triple)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_handoff_matches_pure_csr_serial(self, dtype, monkeypatch):
        """The dense handoff matches a run that never hands off and
        keeps pooled CSR for the whole cycle, bitwise."""
        S, v = _instance(250)
        _force_shards(monkeypatch, 2)
        dense = _cycle(250, S, v, mode="probe", dtype=dtype)
        monkeypatch.setattr(engine_mod, "_DENSIFY_THRESHOLD", 2.0)
        eng = make_engine(
            "sync", n=250, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="probe", dtype=dtype,
        )
        pure = eng.run_cycle(S, v)
        assert not any(eng.sparse_workspace.dense_on)
        assert dense.steps == pure.steps
        np.testing.assert_array_equal(dense.v_next, pure.v_next)
        assert dense.gossip_error == pure.gossip_error

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    def test_handoff_point_invariance(self, threshold, dtype, monkeypatch):
        """Results are invariant in *when* the handoff happens — from
        densify-immediately to only-at-full-occupancy."""
        S, v = _instance(250)
        base = _cycle(250, S, v, mode="probe", dtype=dtype)
        monkeypatch.setattr(engine_mod, "_DENSIFY_THRESHOLD", threshold)
        _force_shards(monkeypatch, 3)
        res = _cycle(250, S, v, mode="probe", dtype=dtype)
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert res.gossip_error == base.gossip_error

    def test_handoff_multi_cycle_reuse(self, monkeypatch):
        """Cycle 2 reloads the released pools and hands off again; both
        cycles must match a never-handing-off engine bitwise, in both
        dtypes."""
        S, v = _instance(250)
        _force_shards(monkeypatch, 2)
        default = engine_mod._DENSIFY_THRESHOLD
        for dtype in ("float64", "float32"):
            engines = [
                make_engine(
                    "sync", n=250, rng=RngStreams(SEED), epsilon=EPSILON,
                    mode="probe", dtype=dtype,
                )
                for _ in range(2)
            ]
            runs = []
            for eng, threshold in zip(engines, (default, 2.0)):
                monkeypatch.setattr(engine_mod, "_DENSIFY_THRESHOLD", threshold)
                results = [eng.run_cycle(S, v) for _ in range(2)]
                assert any(eng.sparse_workspace.dense_on) == (threshold < 1.0)
                runs.append(results)
            for got, want in zip(*runs):
                assert got.steps == want.steps
                np.testing.assert_array_equal(got.v_next, want.v_next)
                # probe mode's v_next is the exact oracle; the gossiped
                # estimates show up in gossip_error
                assert got.gossip_error == want.gossip_error

    def test_handoff_full_mode_and_sanitizer(self):
        """Full mode exercises the dense mass/nonnegativity sanitizer
        branches over handed-off state; result matches the oracle to
        accumulation-order rounding."""
        S, v = _instance(N)
        means, steps, _ = _oracle(N, S, v)
        eng = make_engine(
            "sync", n=N, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="full", check_every=1,
        )
        eng.arm_sanitizer()
        res = eng.run_cycle(S, v)
        assert all(eng.sparse_workspace.dense_on)
        assert eng.sanitizer.checks > 0
        assert res.steps == steps
        np.testing.assert_allclose(res.v_next, means, rtol=1e-12)

    def test_budget_exhaustion_reads_dense_state(self):
        """The best-effort estimates path (_best_effort_estimates) reads
        normalized dense slots when the budget runs out post-handoff."""
        S, v = _instance(250)
        eng = make_engine(
            "sync", n=250, rng=RngStreams(SEED), epsilon=1e-12,
            mode="probe", max_steps=40,
        )
        res = eng.run_cycle(S, v, raise_on_budget=False)
        assert not res.converged and res.steps == 40
        assert all(eng.sparse_workspace.dense_on)
        assert np.isfinite(res.gossip_error)


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
    """Column shards step on threads, one per usable core.  Each shard's
    arithmetic is the serial one and only the calling thread draws
    partners or checks convergence, so the thread count is bitwise
    invisible."""

    @pytest.mark.parametrize("threshold", [None, 2.0])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", ["full", "probe"])
    def test_thread_count_invariance(self, mode, dtype, threshold, monkeypatch):
        """1, 2 and 4 cores land on bitwise-equal warm cycles, with the
        default dense handoff and with pure CSR stepping."""
        S, v = _instance(250)
        if threshold is not None:
            monkeypatch.setattr(engine_mod, "_DENSIFY_THRESHOLD", threshold)
        runs = {}
        for cores in (1, 2, 4):
            _pin_cores(monkeypatch, cores)
            eng, runs[cores] = _warm_cycles(250, S, v, mode=mode, dtype=dtype)
            assert eng.sparse_workspace.shards == cores
            assert any(eng.sparse_workspace.dense_on) == (threshold is None)
        for cores in (2, 4):
            for got, want in zip(runs[cores], runs[1]):
                assert got.converged and got.steps == want.steps
                np.testing.assert_array_equal(got.v_next, want.v_next)
                assert got.gossip_error == want.gossip_error

    def test_shards_step_on_several_threads(self, monkeypatch):
        S, v = _instance(250)
        idents = set()
        shard_step = SynchronousGossipEngine._shard_step

        def spy(self, ws, si, *args):
            idents.add(threading.get_ident())
            if si == 0:
                time.sleep(1e-3)  # time for a pool thread to take shard 1
            return shard_step(self, ws, si, *args)

        monkeypatch.setattr(SynchronousGossipEngine, "_shard_step", spy)
        _pin_cores(monkeypatch, 2)
        res = _cycle(250, S, v, mode="probe")
        assert res.converged
        assert threading.get_ident() in idents and len(idents) > 1

    def test_caller_steps_the_shards_no_thread_took(self, monkeypatch):
        """A pool whose threads are all busy never stalls a step: the
        calling thread steps every shard still queued, bitwise as
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
        assert eng.sparse_workspace.shards == 2
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert res.gossip_error == base.gossip_error

    def test_one_core_steps_without_a_pool(self, monkeypatch):
        """One core steps every shard on the calling thread — also the
        several shards the int32 guard can demand."""
        S, v = _instance(250)
        base = _cycle(250, S, v, mode="probe")
        _pin_cores(monkeypatch, 1)
        monkeypatch.setattr(engine_mod, "_step_pool", None)  # any use fails
        for guard_shards in (1, 3):
            monkeypatch.setattr(
                engine_mod, "min_shards_for", lambda n, cols, k=guard_shards: k
            )
            eng = make_engine(
                "sync", n=250, rng=RngStreams(SEED), epsilon=EPSILON, mode="probe",
            )
            res = eng.run_cycle(S, v)
            assert eng.sparse_workspace.shards == guard_shards
            assert res.steps == base.steps
            np.testing.assert_array_equal(res.v_next, base.v_next)
            assert res.gossip_error == base.gossip_error

    def test_worker_error_propagates_and_engine_recovers(self, monkeypatch):
        """A shard step that raises on a pool thread fails the cycle; the
        half-stepped workspace is dropped and the next cycle runs."""
        S, v = _instance(250)
        _pin_cores(monkeypatch, 2)
        failed_on = []
        caller = threading.get_ident()
        shard_step = SynchronousGossipEngine._shard_step

        def flaky(self, ws, si, *args):
            if si == 0 and not failed_on:
                time.sleep(1e-3)  # time for a pool thread to take shard 1
            if si == 1 and not failed_on and threading.get_ident() != caller:
                failed_on.append(threading.get_ident())
                raise RuntimeError("shard 1 exploded")
            return shard_step(self, ws, si, *args)

        monkeypatch.setattr(SynchronousGossipEngine, "_shard_step", flaky)
        eng = make_engine(
            "sync", n=250, rng=RngStreams(SEED), epsilon=EPSILON, mode="probe",
        )
        with pytest.raises(RuntimeError, match="shard 1 exploded"):
            eng.run_cycle(S, v)
        assert failed_on and failed_on[0] != caller
        assert eng.sparse_workspace is None  # invalidated, not reused
        res = eng.run_cycle(S, v)
        assert res.converged and np.isfinite(res.gossip_error)
        assert eng.sparse_workspace.shards == 2

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
            assert eng.sparse_workspace.shards == 2
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
    """The finite fast path of ``_column_stats`` against its nan path."""

    @staticmethod
    def _nan_path(B):
        means = np.nanmean(np.where(np.isfinite(B), B, np.nan), axis=0)
        spread = np.nanmax(np.nanmax(B, axis=0) - np.nanmin(B, axis=0))
        return means, float(spread)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(1000, 64), (300, 300)])
    def test_finite_fast_path_is_bitwise(self, shape, dtype):
        B = np.random.default_rng(SEED).random(shape).astype(dtype) + 0.5
        means, spread = SynchronousGossipEngine._column_stats(B)
        want_means, want_spread = self._nan_path(B)
        assert means.dtype == want_means.dtype
        np.testing.assert_array_equal(means, want_means)
        assert spread == want_spread

    def test_nan_estimates_take_the_nan_path(self):
        B = np.random.default_rng(SEED).random((400, 64))
        B[3, 5] = np.nan
        B[7, 9] = np.inf
        means, spread = SynchronousGossipEngine._column_stats(B)
        want_means, want_spread = self._nan_path(B)
        assert np.isfinite(means[5])  # the NaN is skipped, not averaged
        np.testing.assert_array_equal(means, want_means)
        assert spread == want_spread
