"""Shadow-ownership race sanitizer: protocol, injection, and parity.

Three layers of proof that the GT006 invariant also holds (and is
*checkable*) at runtime:

* the :class:`~repro.analysis.sanitizer.ShardOwnershipGuard` lease /
  claim / collect protocol trips on every illegal transition;
* an injected overlapping dispatch through the *real*
  :func:`~repro.gossip.shard_exec.advance_shard` path raises
  :class:`~repro.errors.InvariantViolation` naming shard, slot, cycle;
* armed runs (``REPRO_SANITIZE=1`` semantics via
  :func:`~repro.analysis.sanitizer.set_sanitize_enabled`) stay bitwise
  identical to the serial kernel across the shard x worker grid.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.analysis.sanitizer import (
    ShardOwnershipGuard,
    sanitize_enabled,
    set_sanitize_enabled,
)
from repro.errors import InvariantViolation
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip import shard_exec
from repro.gossip.engine import SparseWorkspace
from repro.gossip.factory import make_engine
from repro.gossip.memory import make_backend
from repro.utils.rng import RngStreams

SEED = 0
EPSILON = 1e-4


def _guard(shards=2):
    return ShardOwnershipGuard(
        np.zeros((shards, 3), dtype=np.int64), engine="test"
    )


class TestGuardProtocol:
    def test_lease_claim_collect_roundtrip(self):
        g = _guard()
        g.begin_cycle()
        t = g.lease(0, step=0)
        assert t > 0
        g.claim(0, t, step=0)
        g.collect(0, t, step=0)
        assert not g.epochs.any()  # all cells free again

    def test_tickets_are_unique_per_lease(self):
        g = _guard()
        t0 = g.lease(0)
        t1 = g.lease(1)
        assert t0 != t1

    def test_double_lease_raises(self):
        g = _guard()
        g.begin_cycle()
        g.lease(0, step=4)
        with pytest.raises(InvariantViolation) as ei:
            g.lease(0, step=4)
        assert ei.value.invariant == "shard-ownership"
        assert ei.value.shard == 0
        assert ei.value.slot == 0
        assert ei.value.cycle == 1
        assert "overlapping dispatch" in str(ei.value)

    def test_claim_without_lease_raises(self):
        g = _guard()
        with pytest.raises(InvariantViolation) as ei:
            g.claim(1, 99)
        assert ei.value.shard == 1
        assert "never leased" in str(ei.value)

    def test_double_claim_is_the_overlap_race(self):
        g = _guard()
        t = g.lease(0)
        g.claim(0, t)
        with pytest.raises(InvariantViolation) as ei:
            g.claim(0, t)
        assert "overlapping write" in str(ei.value)

    def test_collect_of_unclaimed_lease_raises(self):
        g = _guard()
        t = g.lease(0)
        with pytest.raises(InvariantViolation) as ei:
            g.collect(0, t)
        assert "never claimed" in str(ei.value)

    def test_begin_cycle_rejects_stale_lease(self):
        g = _guard()
        g.lease(0)
        with pytest.raises(InvariantViolation) as ei:
            g.begin_cycle()
        assert "stale lease" in str(ei.value)

    def test_parent_write_blocked_while_leased(self):
        g = _guard()
        g.register_pool("s0-X", 0, 0)
        g.check_parent_write("s0-X")  # free: fine
        g.lease(0)
        with pytest.raises(InvariantViolation) as ei:
            g.check_parent_write("s0-X", what="load")
        assert "parent-side load" in str(ei.value)

    def test_unregistered_labels_are_untracked(self):
        g = _guard()
        g.lease(0)
        g.check_parent_write("targets")  # no slot binding: no check

    def test_epoch_map_shape_validated(self):
        with pytest.raises(ValueError):
            ShardOwnershipGuard(np.zeros((2, 2), dtype=np.int64))


class TestRaceInjection:
    """Overlapping dispatch through the real worker step path."""

    def _workspace(self, n=16, p=4, shards=2):
        ws = SparseWorkspace(
            n, p, np.float64, make_backend("shared"),
            shards=shards, shard_workers=2, target_rows=4, sanitize=True,
        )
        assert ws.guard is not None
        rng = np.random.default_rng(SEED)
        for si, triple in enumerate(ws.shard_pools):
            ps = ws.bounds[si + 1] - ws.bounds[si]
            x = sparse.random(n, ps, density=0.4, random_state=rng, format="csr")
            triple[0].load(sparse.csr_matrix(x))
            triple[1].load(sparse.csr_matrix(x))
        ws.targets[:] = rng.integers(n, size=ws.targets.shape)
        return ws

    def _attach_in_process(self, ws):
        shard_exec.init_worker(shard_exec.workspace_spec(ws))

    def _teardown(self, ws):
        for keeper in shard_exec._CTX.get("keepers", []):
            close = getattr(keeper, "close", None)
            if close is not None:
                close()
        shard_exec._CTX.clear()
        ws.invalidate()

    def test_leased_window_steps_clean(self):
        ws = self._workspace()
        try:
            self._attach_in_process(ws)
            ws.guard.begin_cycle("sync")
            t0 = ws.guard.lease(0, step=0)
            t1 = ws.guard.lease(1, step=0)
            assert shard_exec.advance_shard(0, 0, 2, (0, 1, 2), t0) == 0
            assert shard_exec.advance_shard(1, 0, 2, (0, 1, 2), t1) == 1
            ws.guard.collect(0, t0, step=0)
            ws.guard.collect(1, t1, step=0)
        finally:
            self._teardown(ws)

    def test_overlapping_dispatch_is_caught(self):
        """Two tasks mapped onto one shard in the same window: the
        second claim sees the first task's epoch and raises instead of
        silently racing on the shared pools."""
        ws = self._workspace()
        try:
            self._attach_in_process(ws)
            ws.guard.begin_cycle("sync")
            ticket = ws.guard.lease(0, step=0)
            shard_exec.advance_shard(0, 0, 1, (0, 1, 2), ticket)
            with pytest.raises(InvariantViolation) as ei:
                shard_exec.advance_shard(0, 0, 1, (0, 1, 2), ticket)
            assert ei.value.invariant == "shard-ownership"
            assert ei.value.shard == 0
            assert ei.value.slot is not None
            assert "overlapping write" in str(ei.value)
        finally:
            self._teardown(ws)

    def test_wrong_shard_task_is_caught(self):
        """A task whose shard argument drifted writes pools it was
        never leased — caught before the first SpGEMM."""
        ws = self._workspace()
        try:
            self._attach_in_process(ws)
            ws.guard.begin_cycle("sync")
            ticket = ws.guard.lease(0, step=0)
            with pytest.raises(InvariantViolation) as ei:
                shard_exec.advance_shard(1, 0, 1, (0, 1, 2), ticket)
            assert ei.value.shard == 1
            assert "never leased" in str(ei.value)
        finally:
            self._teardown(ws)

    def test_parent_pool_load_during_window_is_caught(self):
        """The parent reloading a pool while a worker window holds its
        lease is the same race from the other side (CsrPool hook)."""
        ws = self._workspace()
        try:
            ws.guard.begin_cycle("sync")
            ws.guard.lease(0, step=0)
            pool = ws.physical[0][0]
            mat = pool.tocsr()
            with pytest.raises(InvariantViolation) as ei:
                pool.load(mat)
            assert "parent-side load" in str(ei.value)
        finally:
            ws.invalidate()


class TestSanitizedParity:
    """Armed runs replay the serial kernel bitwise across the grid."""

    @pytest.fixture(autouse=True)
    def _armed(self):
        set_sanitize_enabled(True)
        assert sanitize_enabled()
        yield
        set_sanitize_enabled(None)

    def _run(self, n, S, v, **opts):
        eng = make_engine(
            "sync", n=n, rng=RngStreams(SEED), epsilon=EPSILON,
            mode="probe", **opts,
        )
        try:
            res = eng.run_cycle(S, v)
            guard = eng.sparse_workspace.guard
            cycle = guard.cycle if guard is not None else 0
            leased = bool(guard.epochs.any()) if guard is not None else False
            return res, guard is not None, cycle, leased
        finally:
            eng.invalidate_workspace()

    @pytest.mark.parametrize("shards", [2, 7])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_grid_matches_serial_bitwise(self, shards, workers):
        n = 128
        S = synthetic_trust_matrix(n, rng=RngStreams(SEED).get("matrix"))
        v = np.full(n, 1.0 / n)
        base, _, _, _ = self._run(n, S, v)
        opts = {"shards": shards, "shard_workers": workers}
        if workers > 1:
            opts["workspace_backend"] = "shared"
        res, guarded, cycle, leased = self._run(n, S, v, **opts)
        assert res.steps == base.steps
        np.testing.assert_array_equal(res.v_next, base.v_next)
        assert res.gossip_error == base.gossip_error
        # Parallel runs actually carried the guard; serial ones don't.
        if workers > 1:
            assert guarded and cycle == 1
            assert not leased  # every window was collected
        else:
            assert not guarded
