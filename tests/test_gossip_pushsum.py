"""Push-sum (Algorithm 1): the paper's worked example and protocol laws."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gossip.pushsum import push_sum_step, scripted_push_sum


class TestStep:
    def test_single_step_mass_conservation(self, rng):
        n = 16
        x = rng.random(n)
        w = rng.random(n)
        ids = np.arange(n)
        targets = rng.integers(0, n - 1, size=n)
        targets[targets >= ids] += 1
        x2, w2 = push_sum_step(x, w, targets)
        assert x2.sum() == pytest.approx(x.sum())
        assert w2.sum() == pytest.approx(w.sum())

    def test_step_matches_paper_example_step1(self):
        # Fig. 2(a): N1->N3, N2->N1, N3->N1.
        x, w = push_sum_step(
            np.array([0.1, 0.0, 0.1]), np.array([0.0, 1.0, 0.0]), np.array([2, 0, 0])
        )
        assert x.tolist() == pytest.approx([0.1, 0.0, 0.1])
        assert w.tolist() == pytest.approx([0.5, 0.5, 0.0])

    def test_bad_targets_shape(self):
        with pytest.raises(ValidationError):
            push_sum_step(np.ones(3), np.ones(3), np.array([0, 1]))


class TestScriptedTable1:
    """The paper's Table 1 / Fig. 2 example, following the worked text."""

    X0 = [0.1, 0.0, 0.1]
    W0 = [0.0, 1.0, 0.0]

    def test_step1_matches_worked_text(self):
        res = scripted_push_sum(self.X0, self.W0, [[2, 0, 0]])
        x, w = res.history[0]
        # Text: N1 holds (0.1, 0.5) with beta 0.2; N2 beta = 0; N3 beta = inf.
        assert (x[0], w[0]) == pytest.approx((0.1, 0.5))
        assert res.estimates[0] == pytest.approx(0.2)
        assert res.estimates[1] == pytest.approx(0.0)
        assert res.estimates[2] == math.inf

    def test_step2_reaches_consensus_02_everywhere(self):
        res = scripted_push_sum(self.X0, self.W0, [[2, 0, 0], [2, 2, 1]])
        assert np.allclose(res.estimates, 0.2)

    def test_consensus_equals_eq6_dot_product(self):
        # v2(t+1) = 1/2*0.2 + 1/3*0 + 1/6*0.6 = 0.2
        v = np.array([0.5, 1 / 3, 1 / 6])
        s_col = np.array([0.2, 0.0, 0.6])
        assert float(v @ s_col) == pytest.approx(0.2)

    def test_mass_invariant_through_script(self):
        res = scripted_push_sum(self.X0, self.W0, [[2, 0, 0], [2, 2, 1]])
        assert res.x.sum() == pytest.approx(0.2)
        assert res.w.sum() == pytest.approx(1.0)

    def test_extra_step_keeps_consensus(self):
        res = scripted_push_sum(
            self.X0, self.W0, [[2, 0, 0], [2, 2, 1], [1, 0, 0]]
        )
        assert np.allclose(res.estimates, 0.2)

    def test_script_validation(self):
        with pytest.raises(ValidationError):
            scripted_push_sum(self.X0, self.W0, [[0, 1]])  # wrong arity
        with pytest.raises(ValidationError):
            scripted_push_sum(self.X0, self.W0, [[0, 1, 1]])  # self-partner
        with pytest.raises(ValidationError):
            scripted_push_sum(self.X0, self.W0, [[3, 0, 0]])  # out of range
        with pytest.raises(ValidationError):
            scripted_push_sum([0.1], [0.2, 0.3], [])  # mismatched vectors
