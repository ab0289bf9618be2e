"""Pooled CSR storage (:mod:`repro.gossip.memory`).

The sparse kernel's CSR state lives in :class:`CsrPool` instances whose
capacity grows geometrically and whose int32 indices bound the columns
one pool can hold (:func:`max_pool_columns` / :func:`min_shards_for`).
"""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import ValidationError
from repro.gossip.memory import CsrPool, max_pool_columns, min_shards_for


def _small_csr(n=6, cols=4):
    rng = np.random.default_rng(0)
    dense = rng.random((n, cols))
    dense[dense < 0.5] = 0.0
    return sparse.csr_matrix(dense)


class TestCsrPool:
    def test_load_roundtrip(self):
        mat = _small_csr()
        pool = CsrPool(6, 4, capacity=4, dtype=np.float64)
        pool.load(mat)
        assert pool.nnz == mat.nnz
        assert (pool.tocsr() != mat).nnz == 0

    def test_ensure_grows_geometrically_and_clamps(self):
        pool = CsrPool(6, 4, capacity=2, dtype=np.float64)
        assert pool.capacity == 2
        pool.ensure(3)
        assert pool.capacity == 4  # doubled, not exact-fit
        pool.ensure(10_000)
        assert pool.capacity == pool.full_capacity == 24  # clamped to n*cols

    def test_ensure_noop_when_sufficient(self):
        pool = CsrPool(6, 4, capacity=8, dtype=np.float64)
        indices_before = pool.indices
        pool.ensure(5)
        assert pool.indices is indices_before

    def test_sum_and_min_track_live_prefix(self):
        mat = _small_csr()
        pool = CsrPool(6, 4, capacity=24, dtype=np.float64)
        pool.load(mat)
        assert pool.sum() == pytest.approx(mat.sum())
        assert pool.min() == pytest.approx(mat.data.min())

    def test_empty_pool_min_is_zero(self):
        pool = CsrPool(6, 4, capacity=4, dtype=np.float64)
        assert pool.min() == 0.0

    def test_shape_mismatch_rejected(self):
        pool = CsrPool(6, 4, capacity=4, dtype=np.float64)
        with pytest.raises(ValidationError):
            pool.load(_small_csr(5, 4))

    def test_int32_range_guard(self):
        with pytest.raises(ValidationError):
            CsrPool(2**17, 2**15, capacity=4, dtype=np.float64)

    def test_int32_range_guard_is_actionable(self):
        """The guard message says how many columns *would* fit and the
        shard count that makes the requested shape legal."""
        n, cols = 2**17, 2**15
        with pytest.raises(ValidationError) as exc:
            CsrPool(n, cols, capacity=4, dtype=np.float64)
        msg = str(exc.value)
        assert str(max_pool_columns(n)) in msg  # max columns at this n
        assert f"shards={min_shards_for(n, cols)}" in msg  # the fix

    def test_max_pool_columns_bounds(self):
        n = 10**6
        fit = max_pool_columns(n)
        # The reported bound is sharp: fit columns pass, fit+1 fails.
        assert n * fit < np.iinfo(np.int32).max
        assert n * (fit + 1) >= np.iinfo(np.int32).max
        CsrPool(n, fit, capacity=4, dtype=np.float64)
        with pytest.raises(ValidationError):
            CsrPool(n, fit + 1, capacity=4, dtype=np.float64)

    def test_min_shards_for_restores_legality(self):
        n, cols = 2**17, 2**15
        k = min_shards_for(n, cols)
        assert k > 1
        # Sharding cols over k pools brings every shard under the guard
        # (shard widths differ by at most 1 under contiguous splitting).
        widest = -(-cols // k)
        assert n * widest < np.iinfo(np.int32).max
        # One shard fewer would not fit.
        assert n * -(-cols // (k - 1)) >= np.iinfo(np.int32).max

    def test_float32_pool(self):
        mat = _small_csr()
        pool = CsrPool(6, 4, capacity=24, dtype=np.float32)
        pool.load(mat)
        assert pool.data.dtype == np.float32
        np.testing.assert_allclose(
            pool.tocsr().toarray(), mat.toarray(), rtol=1e-6
        )
