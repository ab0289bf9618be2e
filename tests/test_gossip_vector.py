"""Triplet vectors (Algorithm 2 per-node state)."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from tests.triplet_oracle import NodeVector


class TestInitial:
    def test_initialization_rule(self):
        tv = NodeVector.initial(0, {1: 0.6, 2: 0.4}, {0: 0.5})
        # x_j = s_0j * v_0; w only at owner.
        assert tv.triplet(1).x == pytest.approx(0.3)
        assert tv.triplet(2).x == pytest.approx(0.2)
        assert tv.triplet(0).w == 1.0
        assert tv.triplet(1).w == 0.0

    def test_zero_prior_contributes_no_x(self):
        tv = NodeVector.initial(0, {1: 0.6}, {0: 0.0})
        assert tv.triplet(1).x == 0.0
        assert tv.triplet(0).w == 1.0

    def test_negative_score_rejected(self):
        with pytest.raises(ValidationError):
            NodeVector.initial(0, {1: -0.1}, {0: 0.5})


class TestGossipOps:
    def test_halve_splits_and_returns_equal_share(self):
        tv = NodeVector.initial(0, {1: 1.0}, {0: 0.5})
        sent = tv.halve()
        assert tv.triplet(1).x == pytest.approx(0.25)
        assert sent.triplet(1).x == pytest.approx(0.25)
        assert tv.triplet(0).w == pytest.approx(0.5)
        assert sent.triplet(0).w == pytest.approx(0.5)

    def test_merge_sums_componentwise(self):
        a = NodeVector.initial(0, {1: 1.0}, {0: 1.0})
        b = NodeVector.initial(2, {1: 1.0}, {2: 0.5})
        a.merge(b)
        assert a.triplet(1).x == pytest.approx(1.5)
        assert a.triplet(2).w == 1.0
        assert a.triplet(0).w == 1.0

    def test_halve_merge_conserves_mass(self):
        tv = NodeVector.initial(0, {1: 0.8, 3: 0.2}, {0: 1.0})
        before = tv.mass()
        sent = tv.halve()
        tv.merge(sent)
        after = tv.mass()
        assert after[0] == pytest.approx(before[0])
        assert after[1] == pytest.approx(before[1])

    def test_merge_learns_unknown_ids(self):
        a = NodeVector.initial(0, {}, {0: 1.0})
        b = NodeVector.initial(5, {7: 1.0}, {5: 0.25})
        a.merge(b)
        assert 7 in a.known_ids()
        assert 5 in a.known_ids()


class TestAccessors:
    def test_estimate_semantics(self):
        tv = NodeVector.initial(0, {1: 1.0}, {0: 0.4})
        assert tv.estimate(0) == pytest.approx(0.0)  # x=0, w=1
        assert tv.estimate(1) == math.inf  # x>0, w=0
        assert math.isnan(tv.estimate(9))  # unknown id

    def test_estimates_array(self):
        tv = NodeVector.initial(0, {1: 1.0}, {0: 0.4})
        arr = tv.estimates_array(3)
        assert arr[0] == 0.0
        assert arr[1] == math.inf
        assert math.isnan(arr[2])

    def test_payload_size_and_len(self):
        tv = NodeVector.initial(0, {1: 0.5, 2: 0.5}, {0: 1.0})
        assert len(tv) == 3  # ids 0 (w), 1, 2 (x)
        assert tv.payload_size() == 3

    def test_copy_is_deep(self):
        tv = NodeVector.initial(0, {1: 1.0}, {0: 1.0})
        cp = tv.copy()
        cp.halve()
        assert tv.triplet(1).x == pytest.approx(1.0)

    def test_iteration_yields_sorted_triplets(self):
        tv = NodeVector.initial(0, {5: 0.5, 2: 0.5}, {0: 1.0})
        ids = [t.node for t in tv]
        assert ids == sorted(ids)

    def test_estimates_matrix_matches_per_node_arrays(self):
        vectors = [
            NodeVector.initial(0, {1: 0.7, 2: 0.3}, {0: 0.5}),
            NodeVector.initial(1, {0: 1.0}, {1: 0.25}),
            NodeVector.initial(2, {}, {2: 1.0}),
        ]
        n = 4
        mat = NodeVector.estimates_matrix(vectors, n)
        assert mat.shape == (3, n)
        for row, tv in zip(mat, vectors):
            np.testing.assert_array_equal(row, tv.estimates_array(n))

    def test_estimates_matrix_inf_where_x_without_w(self):
        tv = NodeVector.initial(0, {1: 1.0}, {0: 0.4})
        mat = NodeVector.estimates_matrix([tv], 3)
        assert mat[0, 1] == math.inf  # x > 0, w == 0
        assert math.isnan(mat[0, 2])  # no mass at all


class TestCaching:
    """known_ids / payload_size are cached and invalidated on merge."""

    def test_known_ids_cached_until_merge(self):
        tv = NodeVector.initial(0, {1: 0.5, 3: 0.5}, {0: 1.0})
        first = tv.known_ids()
        assert tv.known_ids() is first  # cache hit, no rebuild
        tv.halve()  # scaling cannot change the known set
        assert tv.known_ids() is first
        other = NodeVector.initial(7, {2: 1.0}, {7: 0.5})
        tv.merge(other)
        rebuilt = tv.known_ids()
        assert rebuilt is not first
        assert set(rebuilt) == {0, 1, 2, 3, 7}

    def test_payload_size_tracks_merges(self):
        tv = NodeVector.initial(0, {1: 1.0}, {0: 1.0})
        assert tv.payload_size() == 2
        tv.merge(NodeVector.initial(4, {}, {4: 1.0}))
        assert tv.payload_size() == 3
        assert len(tv) == 3

    def test_payload_size_without_materializing_ids(self):
        tv = NodeVector.initial(0, {1: 1.0, 2: 1.0}, {0: 1.0})
        assert tv.payload_size() == 3
        assert tv._known is None  # count alone never builds the tuple

    def test_copy_carries_caches(self):
        tv = NodeVector.initial(0, {1: 1.0}, {0: 1.0})
        ids = tv.known_ids()
        cp = tv.copy()
        assert cp.known_ids() == ids
        cp.merge(NodeVector.initial(3, {}, {3: 1.0}))
        # the copy's invalidation must not leak back into the original
        assert tv.known_ids() is ids
        assert cp.payload_size() == 3
