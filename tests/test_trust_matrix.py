"""Trust matrix: Eq. 1 normalization, stochasticity, dangling rows."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import ValidationError
from repro.trust.feedback import FeedbackLedger
from repro.trust.matrix import TrustMatrix


class TestFromDenseRaw:
    def test_rows_are_normalized(self, small_raw):
        S = TrustMatrix.from_dense_raw(small_raw)
        dense = S.dense()
        assert np.allclose(dense.sum(axis=1), 1.0)
        # Eq. 1 check on row 0: raw (0, 3, 1, 0) -> (0, .75, .25, 0)
        assert dense[0].tolist() == pytest.approx([0.0, 0.75, 0.25, 0.0])

    def test_dangling_row_gets_uniform_fallback(self, small_raw):
        S = TrustMatrix.from_dense_raw(small_raw)
        assert S.dense()[3].tolist() == pytest.approx([0.25] * 4)

    def test_diagonal_zeroed(self):
        raw = np.array([[5.0, 1.0], [1.0, 5.0]])
        S = TrustMatrix.from_dense_raw(raw)
        assert S.dense()[0].tolist() == [0.0, 1.0]

    def test_negative_raw_rejected(self):
        with pytest.raises(ValidationError):
            TrustMatrix.from_dense_raw(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestFromLedger:
    def test_matches_dense_construction(self, small_raw):
        ledger = FeedbackLedger(4)
        for i in range(4):
            for j in range(4):
                if i != j and small_raw[i, j] > 0:
                    ledger.set_score(i, j, small_raw[i, j])
        S_ledger = TrustMatrix.from_ledger(ledger)
        S_dense = TrustMatrix.from_dense_raw(small_raw)
        assert np.allclose(S_ledger.dense(), S_dense.dense())

    def test_from_raw_entries(self):
        ledger = FeedbackLedger(3)
        for i, j, r in [(0, 1, 2.0), (0, 2, 2.0), (1, 0, 1.0), (2, 0, 1.0)]:
            ledger.set_score(i, j, r)
        S = TrustMatrix.from_ledger(ledger)
        dense = S.dense()
        assert dense[0, 1] == pytest.approx(0.5)
        assert dense[1, 0] == pytest.approx(1.0)


class TestConstructorValidation:
    def test_accepts_stochastic(self):
        S = TrustMatrix(sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert S.n == 2

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            TrustMatrix(sparse.csr_matrix(np.array([[0.0, 0.5], [1.0, 0.0]])))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            TrustMatrix(sparse.csr_matrix(np.ones((2, 3)) / 3))

    def test_rejects_entries_above_one(self):
        with pytest.raises(ValidationError):
            TrustMatrix(sparse.csr_matrix(np.array([[1.5, -0.5], [0.5, 0.5]])))


class TestOperations:
    def test_aggregate_is_transpose_product(self, random_S):
        v = np.random.default_rng(0).random(random_S.n)
        v /= v.sum()
        expected = random_S.dense().T @ v
        assert np.allclose(random_S.aggregate(v), expected)

    def test_aggregate_preserves_total_mass(self, random_S):
        v = np.full(random_S.n, 1.0 / random_S.n)
        out = random_S.aggregate(v)
        assert out.sum() == pytest.approx(1.0)

    def test_aggregate_validates_size(self, small_S):
        with pytest.raises(ValidationError):
            small_S.aggregate(np.ones(3))

    def test_spectral_gap_orders_eigenvalues(self, random_S):
        lam1, lam2 = random_S.spectral_gap()
        assert lam1 >= lam2 >= 0
        assert lam1 == pytest.approx(1.0, abs=1e-6)  # stochastic matrix

    def test_nnz(self, small_S):
        assert small_S.nnz >= 7  # 7 raw entries + fallback row


class TestApplyRowDeltas:
    def _rebuild_reference(self, ledger):
        """The from-scratch matrix the patched one must equal."""
        return TrustMatrix.from_ledger(ledger)

    def test_patched_matches_from_scratch_rebuild(self, rng):
        n = 40
        ledger = FeedbackLedger(n)
        for i in range(n):
            for j in rng.choice(n - 1, size=5, replace=False):
                j = int(j) + (j >= i)
                ledger.set_score(i, int(j), float(1.0 - rng.random()))
        S = TrustMatrix.from_ledger(ledger)
        ledger.clear_dirty()
        # Mutate a handful of rows: one rescored, one extended, one erased.
        ledger.set_score(3, 7, 9.0)
        ledger.set_score(11, 0, ledger.score(11, 0) + 2.5)
        for j, v in list(ledger.row(20).items()):
            ledger.set_score(20, j, 0.0)  # row 20 becomes dangling
        S.apply_row_deltas(ledger.drain_dirty())
        ref = self._rebuild_reference(ledger)
        assert np.allclose(S.dense(), ref.dense())

    def test_transpose_stays_coherent(self, small_S):
        v = np.array([0.4, 0.3, 0.2, 0.1])
        small_S.apply_row_deltas({0: {1: 1.0, 3: 3.0}})
        assert np.allclose(small_S.aggregate(v), small_S.dense().T @ v)

    def test_empty_delta_row_gets_uniform_fallback(self, small_S):
        small_S.apply_row_deltas({1: {}})
        assert small_S.dense()[1].tolist() == pytest.approx([0.25] * 4)

    def test_no_deltas_is_a_noop(self, small_S):
        before = small_S.dense()
        small_S.apply_row_deltas({})
        assert np.array_equal(small_S.dense(), before)

    def test_rejects_out_of_range_rater(self, small_S):
        with pytest.raises(ValidationError):
            small_S.apply_row_deltas({4: {0: 1.0}})

    def test_rejects_out_of_range_ratee(self, small_S):
        with pytest.raises(ValidationError):
            small_S.apply_row_deltas({0: {4: 1.0}})

    def test_rejects_self_score(self, small_S):
        with pytest.raises(ValidationError):
            small_S.apply_row_deltas({2: {2: 1.0}})

    def test_rejects_negative_score(self, small_S):
        with pytest.raises(ValidationError):
            small_S.apply_row_deltas({0: {1: -0.5}})

    def test_rows_stay_stochastic_under_armed_sanitizer(self, rng):
        from repro.analysis.sanitizer import set_sanitize_enabled

        n = 25
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        np.fill_diagonal(raw, 0.0)
        for i in range(n):
            if raw[i].sum() == 0:
                raw[i, (i + 1) % n] = 1.0
        S = TrustMatrix.from_dense_raw(raw)
        set_sanitize_enabled(True)
        try:
            S.apply_row_deltas({2: {0: 1.0, 5: 2.0}, 7: {}, 9: {1: 0.25}})
        finally:
            set_sanitize_enabled(None)
        assert np.allclose(np.asarray(S.sparse().sum(axis=1)).ravel(), 1.0)
