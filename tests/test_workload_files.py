"""File catalog: popularity law, placement, liveness filtering."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.workload import files
from repro.workload.files import FileCatalog


@pytest.fixture(scope="module")
def catalog():
    return FileCatalog(2000, 100, rng=0)


class TestCopies:
    def test_every_file_has_at_least_one_copy(self, catalog):
        for f in (1, 500, 2000):
            assert catalog.owners(f).size >= 1

    def test_popular_files_have_more_copies(self, catalog):
        head = np.mean([catalog.owners(f).size for f in range(1, 21)])
        tail = np.mean([catalog.owners(f).size for f in range(1981, 2001)])
        assert head > 3 * tail

    def test_copies_bounded_by_peers(self, monkeypatch):
        monkeypatch.setattr(files, "_MEAN_COPIES", 30.0)
        cat = FileCatalog(50, 10, rng=1)
        for f in range(1, 51):
            assert cat.owners(f).size <= 10

    def test_total_copies_scales_with_mean(self, monkeypatch):
        monkeypatch.setattr(files, "_MEAN_COPIES", 2.0)
        lo = FileCatalog(500, 200, rng=2)
        monkeypatch.setattr(files, "_MEAN_COPIES", 8.0)
        hi = FileCatalog(500, 200, rng=2)
        assert hi.total_copies > 2 * lo.total_copies


class TestOwnership:
    def test_owners_are_valid_unique_peers(self, catalog):
        own = catalog.owners(1)
        assert len(set(own.tolist())) == own.size
        assert own.min() >= 0
        assert own.max() < 100

    def test_owners_returns_copy(self, catalog):
        a = catalog.owners(1)
        a[:] = -1
        assert catalog.owners(1).min() >= 0

    def test_placement_skewed_toward_sharers(self, catalog):
        # Free riders (zero Saroiu weight) own nothing.
        owned_by = np.zeros(100, dtype=int)
        for f in range(1, 2001):
            for p in catalog.owners(f):
                owned_by[p] += 1
        assert (owned_by == 0).sum() > 0  # free riders exist
        assert owned_by.max() > 5 * max(1, np.median(owned_by[owned_by > 0]))

class TestValidation:
    def test_rank_bounds(self, catalog):
        with pytest.raises(ValidationError):
            catalog.owners(0)
        with pytest.raises(ValidationError):
            catalog.owners(2001)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            FileCatalog(0, 10)
        with pytest.raises(ValidationError):
            FileCatalog(10, 0)

    def test_deterministic(self):
        a = FileCatalog(100, 20, rng=5)
        b = FileCatalog(100, 20, rng=5)
        for f in (1, 50, 100):
            assert np.array_equal(a.owners(f), b.owners(f))
