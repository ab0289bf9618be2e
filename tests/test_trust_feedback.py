"""Feedback ledger semantics: EigenTrust-style balances, clamping."""

import pytest

from repro.errors import ValidationError
from repro.trust.feedback import FeedbackLedger
from repro.types import TransactionOutcome


@pytest.fixture
def ledger():
    return FeedbackLedger(5)


class TestTransactions:
    def test_authentic_increments_balance(self, ledger):
        ledger.record_transaction(0, 1, TransactionOutcome.AUTHENTIC)
        assert ledger.score(0, 1) == 1.0
        ledger.record_transaction(0, 1, TransactionOutcome.AUTHENTIC)
        assert ledger.score(0, 1) == 2.0

    def test_inauthentic_decrements_and_clamps_at_zero(self, ledger):
        ledger.record_transaction(0, 1, TransactionOutcome.INAUTHENTIC)
        assert ledger.score(0, 1) == 0.0
        ledger.record_transaction(0, 1, TransactionOutcome.AUTHENTIC)
        # Balance is -1 + 1 = 0, still clamped.
        assert ledger.score(0, 1) == 0.0

    def test_mixed_history_nets_out(self, ledger):
        for _ in range(3):
            ledger.record_transaction(0, 1, TransactionOutcome.AUTHENTIC)
        ledger.record_transaction(0, 1, TransactionOutcome.INAUTHENTIC)
        assert ledger.score(0, 1) == 2.0

    def test_transaction_counter(self, ledger):
        ledger.record_transaction(0, 1, TransactionOutcome.AUTHENTIC)
        ledger.record_transaction(2, 3, TransactionOutcome.FAILED)
        assert ledger.transactions == 2


class TestDirectScores:
    def test_set_and_get(self, ledger):
        ledger.set_score(1, 2, 0.6)
        assert ledger.score(1, 2) == 0.6

    def test_set_zero_clears_entry(self, ledger):
        ledger.set_score(1, 2, 0.6)
        ledger.set_score(1, 2, 0.0)
        assert ledger.score(1, 2) == 0.0
        assert ledger.row(1) == {}

    def test_negative_raw_score_rejected(self, ledger):
        with pytest.raises(ValidationError):
            ledger.set_score(1, 2, -0.5)


class TestValidation:
    def test_self_rating_rejected(self, ledger):
        with pytest.raises(ValidationError):
            ledger.record_transaction(2, 2, TransactionOutcome.AUTHENTIC)
        with pytest.raises(ValidationError):
            ledger.set_score(2, 2, 1.0)

    def test_out_of_range_ids(self, ledger):
        with pytest.raises(ValidationError):
            ledger.record_transaction(5, 0, TransactionOutcome.AUTHENTIC)
        with pytest.raises(ValidationError):
            ledger.score(0, 5)
        with pytest.raises(ValidationError):
            ledger.row(-1)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValidationError):
            FeedbackLedger(0)


class TestViews:
    def test_row_is_copy(self, ledger):
        ledger.set_score(0, 1, 1.0)
        row = ledger.row(0)
        row[1] = 99.0
        assert ledger.score(0, 1) == 1.0

    def test_nonzero_pairs(self, ledger):
        ledger.set_score(0, 1, 1.0)
        ledger.set_score(2, 3, 0.5)
        ledger.record_transaction(4, 0, TransactionOutcome.INAUTHENTIC)  # stays 0
        pairs = sorted(ledger.nonzero_pairs())
        assert pairs == [(0, 1, 1.0), (2, 3, 0.5)]


class TestDirtyRows:
    def test_fresh_ledger_has_no_dirty_rows(self, ledger):
        assert ledger.drain_dirty() == {}

    def test_every_mutator_marks_its_rater(self, ledger):
        ledger.record_transaction(0, 1, TransactionOutcome.AUTHENTIC)
        ledger.set_score(2, 3, 1.5)
        assert set(ledger.drain_dirty()) == {0, 2}

    def test_reads_do_not_mark_dirty(self, ledger):
        ledger.set_score(0, 1, 1.0)
        ledger.clear_dirty()
        ledger.score(0, 1)
        ledger.row(0)
        list(ledger.nonzero_pairs())
        assert ledger.drain_dirty() == {}

    def test_drain_emits_current_clamped_rows_and_resets(self, ledger):
        ledger.set_score(0, 1, 2.0)
        ledger.set_score(0, 2, 1.0)
        ledger.record_transaction(3, 0, TransactionOutcome.INAUTHENTIC)  # clamps to 0
        deltas = ledger.drain_dirty()
        assert deltas == {0: {1: 2.0, 2: 1.0}, 3: {}}
        assert ledger.drain_dirty() == {}

    def test_drain_is_sorted_by_rater(self, ledger):
        for rater in (4, 1, 3):
            ledger.set_score(rater, 0, 1.0)
        assert list(ledger.drain_dirty()) == [1, 3, 4]

    def test_clear_dirty_forgets_without_emitting(self, ledger):
        ledger.set_score(0, 1, 1.0)
        ledger.clear_dirty()
        assert ledger.drain_dirty() == {}
        # The score itself survives; only the dirty mark is dropped.
        assert ledger.score(0, 1) == 1.0

    def test_row_decayed_to_zero_drains_as_empty(self, ledger):
        ledger.set_score(0, 1, 1.0)
        ledger.clear_dirty()
        ledger.record_transaction(0, 1, TransactionOutcome.INAUTHENTIC)
        assert ledger.drain_dirty() == {0: {}}

    def test_remutation_after_drain_marks_again(self, ledger):
        ledger.set_score(0, 1, 1.0)
        ledger.drain_dirty()
        ledger.set_score(0, 1, 1.5)
        assert list(ledger.drain_dirty()) == [0]
