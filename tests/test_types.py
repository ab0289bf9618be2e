"""Value-type behaviors: Triplet, ReputationVector."""

import math

import pytest

from repro.types import PeerClass, ReputationVector
from tests.triplet_oracle import Triplet


class TestTriplet:
    def test_estimate(self):
        assert Triplet(x=0.05, node=3, w=0.25).estimate == pytest.approx(0.2)

    def test_estimate_zero_w(self):
        assert Triplet(x=0.1, node=0, w=0.0).estimate == math.inf
        assert math.isnan(Triplet(x=0.0, node=0, w=0.0).estimate)


class TestReputationVector:
    def test_score_lookup_and_default(self):
        v = ReputationVector(scores={0: 0.6, 1: 0.4})
        assert v.score(0) == 0.6
        assert v.score(99) == 0.0

    def test_top_orders_by_score_then_id(self):
        v = ReputationVector(scores={0: 0.2, 1: 0.5, 2: 0.2, 3: 0.1})
        assert v.top(3) == (1, 0, 2)

    def test_top_with_k_larger_than_population(self):
        v = ReputationVector(scores={0: 1.0})
        assert v.top(10) == (0,)


def test_peer_class_values_are_stable():
    # These strings appear in reports; renames are breaking changes.
    assert PeerClass.HONEST.value == "honest"
    assert PeerClass.MALICIOUS_INDEPENDENT.value == "malicious_independent"
    assert PeerClass.MALICIOUS_COLLUSIVE.value == "malicious_collusive"
    assert PeerClass.POWER.value == "power"


def test_package_public_surface_importable():
    """Every name in repro.__all__ resolves (the README's import paths)."""
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
