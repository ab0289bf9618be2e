"""Reputation storage: Bloom filters and the bracketed score store.

§7 lists "efficient reputation storage with Bloom filters" among the
GossipTrust innovations: instead of holding ``n`` floating-point scores,
a node quantizes scores into ``2^b`` brackets and inserts each peer id
into the Bloom filter of its bracket — trading a bounded quantization /
false-positive error for an order-of-magnitude memory saving.
"""

from repro.storage.bloom import BloomFilter, optimal_parameters
from repro.storage.reputation_store import BloomReputationStore, StorageReport

__all__ = [
    "BloomFilter",
    "optimal_parameters",
    "BloomReputationStore",
    "StorageReport",
]
