"""Microbenchmarks of the hot kernels.

These are the true pytest-benchmark timing loops (many rounds), sized
so each operation runs in milliseconds: one push-sum step, one exact
aggregation product, Bloom membership, Chord lookup, topology
generation, and workload sampling.
"""

import numpy as np
import pytest

from repro.distributions.powerlaw import FeedbackCountDistribution
from repro.distributions.query import TwoSegmentZipf
from repro.experiments.synthetic import synthetic_trust_matrix
from repro.gossip.pushsum import push_sum_step
from repro.network.dht import ChordRing
from repro.network.topology import gnutella_like
from repro.storage.bloom import BloomFilter
from repro.utils.rng import RngStreams


@pytest.fixture(scope="module")
def S1000():
    return synthetic_trust_matrix(1000, rng=RngStreams(0).get("m"))


def test_push_sum_step_4096_nodes(benchmark):
    n = 4096
    rng = np.random.default_rng(0)
    x = rng.random(n)
    w = rng.random(n)
    ids = np.arange(n)
    targets = rng.integers(0, n - 1, size=n)
    targets[targets >= ids] += 1
    benchmark(push_sum_step, x, w, targets)


def test_exact_aggregation_product_1000_nodes(benchmark, S1000):
    v = np.full(1000, 1e-3)
    benchmark(S1000.aggregate, v)


def test_bloom_membership(benchmark):
    bf = BloomFilter(10_000, 0.01)
    bf.update(range(10_000))
    benchmark(lambda: 5000 in bf)


def test_chord_lookup_1024_nodes(benchmark):
    ring = ChordRing(range(1024), bits=32)
    counter = iter(range(10**9))
    benchmark(lambda: ring.lookup(0, ("k", next(counter))))


def test_gnutella_topology_generation_1000(benchmark):
    counter = iter(range(10**9))
    benchmark.pedantic(
        lambda: gnutella_like(1000, rng=next(counter)), rounds=3, iterations=1
    )


def test_feedback_count_sampling_100k(benchmark):
    dist = FeedbackCountDistribution()
    rng = np.random.default_rng(0)
    benchmark(dist.sample_counts, 100_000, rng)


def test_query_rank_sampling_100k(benchmark):
    dist = TwoSegmentZipf(100_000)
    rng = np.random.default_rng(0)
    benchmark(dist.sample_ranks, 100_000, rng)
