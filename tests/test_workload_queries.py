"""Query stream semantics."""

import numpy as np
import pytest

from repro.distributions import query
from repro.errors import ValidationError
from repro.workload.queries import QueryStream


class TestGeneration:
    def test_queries_well_formed(self):
        qs = QueryStream(50, 1000, rng=0)
        for q in qs.take(200):
            assert 0 <= q.requester < 50
            assert 1 <= q.file_rank <= 1000
        assert qs.issued == 200

    def test_indices_sequential(self):
        qs = QueryStream(10, 100, rng=1)
        idxs = [q.index for q in qs.take(5)]
        assert idxs == [0, 1, 2, 3, 4]

    def test_requesters_roughly_uniform(self):
        qs = QueryStream(4, 100, rng=2)
        counts = np.zeros(4)
        for q in qs.take(8000):
            counts[q.requester] += 1
        assert np.all(np.abs(counts / 8000 - 0.25) < 0.03)

    def test_popular_files_queried_more(self):
        qs = QueryStream(10, 5000, rng=3)
        ranks = np.array([q.file_rank for q in qs.take(20_000)])
        assert (ranks <= 250).mean() > (ranks > 4000).mean()

    def test_custom_popularity(self, monkeypatch):
        monkeypatch.setattr(query, "_HEAD_EXPONENT", 2.0)
        monkeypatch.setattr(query, "_TAIL_EXPONENT", 2.0)
        monkeypatch.setattr(query, "_BREAK_RANK", 10)
        qs = QueryStream(5, 100, rng=4)
        ranks = [q.file_rank for q in qs.take(1000)]
        assert max(ranks) <= 100
        assert ranks.count(1) > 500  # p(1) = 1 / sum(r**-2) ~ 0.61

    def test_deterministic(self):
        a = [q.file_rank for q in QueryStream(5, 100, rng=9).take(50)]
        b = [q.file_rank for q in QueryStream(5, 100, rng=9).take(50)]
        assert a == b

    def test_take_validation(self):
        qs = QueryStream(5, 100)
        with pytest.raises(ValidationError):
            list(qs.take(-1))

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            QueryStream(0, 10)
        with pytest.raises(ValidationError):
            QueryStream(10, 0)
