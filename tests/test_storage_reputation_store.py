"""Bracketed Bloom reputation store."""

import hashlib

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.storage import reputation_store
from repro.storage.reputation_store import BloomReputationStore


@pytest.fixture
def scores(rng):
    v = rng.pareto(1.5, size=200) + 1e-4
    return v / v.sum()


class TestBuildAndLookup:
    def test_lookup_within_bracket_error(self, scores):
        store = BloomReputationStore(bracket_bits=6)
        store.build(scores)
        # Geometric brackets: retrieved score within one bracket ratio.
        edges_ratio = (scores.max() / reputation_store._MIN_SCORE) ** (1.0 / 64)
        for node in range(0, 200, 17):
            got = store.lookup(node)
            truth = scores[node]
            if truth >= reputation_store._MIN_SCORE:
                assert got / truth < edges_ratio * 2
                assert truth / got < edges_ratio * 2

    def test_more_brackets_less_error(self, scores):
        errs = {}
        for bits in (3, 8):
            store = BloomReputationStore(bracket_bits=bits)
            store.build(scores)
            errs[bits] = store.report().mean_relative_error
        assert errs[8] < errs[3]

    def test_lookup_vector_shape(self, scores):
        store = BloomReputationStore()
        store.build(scores)
        out = store.lookup_vector(200)
        assert out.shape == (200,)
        assert np.all(out > 0)

    def test_representative_is_geometric_midpoint(self, scores):
        store = BloomReputationStore(bracket_bits=4)
        store.build(scores)
        rep = store.representative(0)
        assert store._edges[0] <= rep <= store._edges[1]

    def test_lookups_hash_once_and_answer_as_per_filter_hashing(self, scores, monkeypatch):
        """One digest per lookup; every answer, false positives included,
        is the one re-hashing the id in each filter with uint64 NumPy
        arithmetic gives, over the same filter bits."""

        def positions(f, item):
            d = hashlib.sha256(repr(item).encode()).digest()
            h1 = int.from_bytes(d[:8], "big")
            h2 = int.from_bytes(d[8:16], "big") | 1
            idx = (h1 + h2 * np.arange(f.k, dtype=np.uint64)) % np.uint64(f.m)
            return idx.astype(np.int64)

        store = BloomReputationStore(bracket_bits=5)
        store.build(scores)
        bracket = store._bracket_of(scores)
        for b, f in enumerate(store._filters):
            bits = np.zeros(f.m, dtype=bool)
            for node in np.flatnonzero(bracket == b).tolist():
                bits[positions(f, node)] = True
            np.testing.assert_array_equal(f._bits, bits)
        calls = []
        real = reputation_store.digests
        monkeypatch.setattr(
            reputation_store, "digests", lambda item: calls.append(item) or real(item)
        )
        false_positives = 0
        for node in range(2000):  # ids 200.. are stored nowhere
            want = reputation_store._MIN_SCORE
            for b in range(store.brackets - 1, -1, -1):
                f = store._filters[b]
                if f._bits[positions(f, node)].all():
                    want = store.representative(b)
                    false_positives += node >= 200
                    break
            assert store.lookup(node) == want
        assert calls == list(range(2000))
        assert false_positives > 0  # the comparison covers wrong brackets too

    def test_rebuild_replaces_contents(self, scores):
        store = BloomReputationStore()
        store.build(scores)
        flat = np.full(50, 1.0 / 50)
        store.build(flat)
        assert store.lookup_vector(50).shape == (50,)


class TestReport:
    def test_report_fields(self, scores):
        store = BloomReputationStore(bracket_bits=5)
        store.build(scores)
        rep = store.report()
        assert rep.bloom_bytes > 0
        assert rep.raw_bytes == 200 * 16
        assert rep.compression_ratio == rep.raw_bytes / rep.bloom_bytes
        assert 0 <= rep.misbracket_rate <= 1
        assert rep.mean_relative_error <= rep.max_relative_error

    def test_report_on_unbuilt_store_is_empty(self):
        # A metrics scrape may race the first build(): an un-built store
        # reports zeroed accounting instead of raising (and the neutral
        # compression ratio divides nothing by nothing).
        rep = BloomReputationStore().report()
        assert not BloomReputationStore().built
        assert rep.bloom_bytes == 0 and rep.raw_bytes == 0
        assert rep.mean_relative_error == 0.0
        assert rep.max_relative_error == 0.0
        assert rep.misbracket_rate == 0.0
        assert rep.compression_ratio == 1.0

    def test_build_failure_preserves_previous_snapshot(self, scores):
        # Re-entrant per-epoch rebuilds: a failed build must leave the
        # prior snapshot fully servable (atomic swap, no half state).
        store = BloomReputationStore(bracket_bits=5)
        store.build(scores)
        before = [store.lookup(i) for i in range(20)]
        with pytest.raises(ValidationError):
            store.build(np.array([-1.0, 0.5]))
        assert store.built
        assert [store.lookup(i) for i in range(20)] == before


class TestValidation:
    def test_lookup_requires_build(self):
        with pytest.raises(ValidationError):
            BloomReputationStore().lookup(0)

    def test_constructor_bounds(self):
        with pytest.raises(ValidationError):
            BloomReputationStore(bracket_bits=0)
        with pytest.raises(ValidationError):
            BloomReputationStore(bracket_bits=17)

    def test_build_rejects_bad_vectors(self):
        store = BloomReputationStore()
        with pytest.raises(ValidationError):
            store.build(np.array([]))
        with pytest.raises(ValidationError):
            store.build(np.array([-0.1, 1.1]))

    def test_representative_range_check(self, scores):
        store = BloomReputationStore(bracket_bits=3)
        store.build(scores)
        with pytest.raises(ValidationError):
            store.representative(8)

    def test_degenerate_all_tiny_scores(self, monkeypatch):
        monkeypatch.setattr(reputation_store, "_MIN_SCORE", 1e-3)
        store = BloomReputationStore()
        store.build(np.full(10, 1e-6))
        assert store.lookup(0) > 0
