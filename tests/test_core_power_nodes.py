"""Power-node selection semantics."""

import numpy as np
import pytest

from repro.core.power_nodes import PowerNodeSelector
from repro.errors import ValidationError


class TestSelection:
    def test_selects_top_q(self):
        sel = PowerNodeSelector(5, 2)
        chosen = sel.select(np.array([0.1, 0.4, 0.05, 0.3, 0.15]))
        assert chosen == frozenset({1, 3})

    def test_tie_break_prefers_lower_id(self):
        sel = PowerNodeSelector(4, 2)
        chosen = sel.select(np.array([0.25, 0.25, 0.25, 0.25]))
        assert chosen == frozenset({0, 1})

    def test_zero_q_selects_nothing(self):
        sel = PowerNodeSelector(4, 0)
        assert sel.select(np.ones(4) / 4) == frozenset()

    def test_turnover_tracking(self):
        sel = PowerNodeSelector(4, 2)
        first = sel.select(np.array([0.4, 0.3, 0.2, 0.1]))
        second = sel.select(np.array([0.1, 0.2, 0.3, 0.4]))
        assert len(first ^ second) == 4  # {0,1} -> {2,3}
        assert set(np.flatnonzero(sel.pretrust().vector)) == second
        assert sel.rounds == 2

    def test_deterministic_across_calls(self):
        v = np.array([0.5, 0.2, 0.2, 0.1])
        a = PowerNodeSelector(4, 2).select(v)
        b = PowerNodeSelector(4, 2).select(v)
        assert a == b


class TestPretrust:
    def test_pretrust_over_current_selection(self):
        sel = PowerNodeSelector(4, 2)
        sel.select(np.array([0.4, 0.3, 0.2, 0.1]))
        p = sel.pretrust()
        assert p.vector.tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_pretrust_uniform_before_selection(self):
        p = PowerNodeSelector(4, 2).pretrust()
        assert p.vector.tolist() == [0.25] * 4


class TestValidation:
    def test_bad_construction(self):
        with pytest.raises(ValidationError):
            PowerNodeSelector(0, 0)
        with pytest.raises(ValidationError):
            PowerNodeSelector(3, 4)
        with pytest.raises(ValidationError):
            PowerNodeSelector(3, -1)

    def test_bad_vector_shapes(self):
        sel = PowerNodeSelector(3, 1)
        with pytest.raises(ValidationError):
            sel.select(np.ones(4) / 4)
