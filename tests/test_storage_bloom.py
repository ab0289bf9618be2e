"""Bloom filters: no false negatives, bounded false positives, algebra."""

import numpy as np
import pytest

from repro.errors import BloomCapacityError, ValidationError
from repro.storage.bloom import BloomFilter, optimal_parameters


class TestParameters:
    def test_formulas(self):
        m, k = optimal_parameters(1000, 0.01)
        assert 9000 < m < 10100  # ~9.6 bits per item at 1% FP
        assert k in (6, 7)

    def test_lower_error_means_more_bits(self):
        m1, _ = optimal_parameters(1000, 0.01)
        m2, _ = optimal_parameters(1000, 0.0001)
        assert m2 > 1.5 * m1

    def test_validation(self):
        with pytest.raises(ValidationError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValidationError):
            optimal_parameters(10, 1.5)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(500, 0.01)
        items = [f"item-{i}" for i in range(500)]
        bf.update(items)
        assert all(item in bf for item in items)

    def test_false_positive_rate_bounded(self):
        bf = BloomFilter(1000, 0.01)
        bf.update(range(1000))
        fp = sum(x in bf for x in range(10_000, 30_000)) / 20_000
        assert fp < 0.03

    def test_capacity_enforced(self):
        bf = BloomFilter(3)
        bf.update([1, 2, 3])
        with pytest.raises(BloomCapacityError):
            bf.add(4)

    def test_empty_contains_nothing(self):
        bf = BloomFilter(10)
        assert 42 not in bf

    def test_size_bytes(self):
        bf = BloomFilter(1000, 0.01)
        assert bf.size_bytes == (bf.m + 7) // 8

    def test_deterministic_hashing(self):
        a = BloomFilter(10)
        b = BloomFilter(10)
        a.add("x")
        b.add("x")
        assert np.array_equal(a._bits, b._bits)

