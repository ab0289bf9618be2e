"""Object (version) reputation semantics."""

import pytest

from repro.errors import ValidationError
from repro.types import TransactionOutcome
from repro.workload.object_reputation import ObjectReputation


@pytest.fixture
def obj():
    return ObjectReputation(n_files=10, versions_per_file=3)


class TestVoting:
    def test_unvoted_version_scores_prior(self, obj):
        assert obj.score(1, 0) == pytest.approx(0.5)

    def test_authentic_votes_raise_score(self, obj):
        for _ in range(5):
            obj.vote(1, 0, TransactionOutcome.AUTHENTIC)
        assert obj.score(1, 0) > 0.8

    def test_inauthentic_votes_lower_score(self, obj):
        for _ in range(5):
            obj.vote(1, 1, TransactionOutcome.INAUTHENTIC)
        assert obj.score(1, 1) < 0.2

    def test_weighted_votes_count_proportionally(self, obj):
        obj.vote(1, 0, TransactionOutcome.AUTHENTIC, weight=10.0)
        obj.vote(1, 0, TransactionOutcome.INAUTHENTIC, weight=1.0)
        assert obj.score(1, 0) > 0.7

    def test_heavy_liars_outweighed_by_reputable_votes(self, obj):
        # 10 liars with weight 0.1 vs 2 honest with weight 2.0
        for _ in range(10):
            obj.vote(2, 1, TransactionOutcome.AUTHENTIC, weight=0.1)  # poison praised
        for _ in range(2):
            obj.vote(2, 1, TransactionOutcome.INAUTHENTIC, weight=2.0)
        assert obj.score(2, 1) < 0.5

    def test_votes_counted(self, obj):
        obj.vote(1, 0, TransactionOutcome.AUTHENTIC)
        obj.vote(1, 1, TransactionOutcome.INAUTHENTIC)
        assert obj.votes_cast == 2

    def test_zero_weight_vote_is_noop_on_score(self, obj):
        before = obj.score(1, 0)
        obj.vote(1, 0, TransactionOutcome.INAUTHENTIC, weight=0.0)
        assert obj.score(1, 0) == pytest.approx(before)


class TestQueries:
    def test_best_version_picks_highest(self, obj):
        obj.vote(3, 0, TransactionOutcome.AUTHENTIC, weight=3.0)
        obj.vote(3, 2, TransactionOutcome.INAUTHENTIC, weight=3.0)
        assert obj.best_version(3) == 0

    def test_best_version_tie_prefers_lowest_id(self, obj):
        assert obj.best_version(5) == 0  # all at prior

    def test_validate_threshold(self, obj):
        obj.vote(4, 1, TransactionOutcome.INAUTHENTIC, weight=5.0)
        assert obj.validate(4, 1) is False
        assert obj.validate(4, 0) is True  # prior 0.5 >= 0.5

class TestValidation:
    def test_rank_and_version_bounds(self, obj):
        with pytest.raises(ValidationError):
            obj.vote(0, 0, TransactionOutcome.AUTHENTIC)
        with pytest.raises(ValidationError):
            obj.vote(11, 0, TransactionOutcome.AUTHENTIC)
        with pytest.raises(ValidationError):
            obj.score(1, 3)
        with pytest.raises(ValidationError):
            obj.best_version(0)

    def test_negative_weight_rejected(self, obj):
        with pytest.raises(ValidationError):
            obj.vote(1, 0, TransactionOutcome.AUTHENTIC, weight=-1.0)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            ObjectReputation(0)
        with pytest.raises(ValidationError):
            ObjectReputation(5, versions_per_file=0)
