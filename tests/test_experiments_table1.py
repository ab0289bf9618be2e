"""Table 1 regression: the paper's worked example, exactly."""

import pytest

from repro.experiments.table1_example import (
    EXPECTED_CONSENSUS,
    INITIAL_W,
    INITIAL_X,
    PARTNER_SCRIPT,
    run_table1,
)


class TestPaperNumbers:
    def test_initial_state_from_paper(self):
        # x_i(0) = s_i2 * v_i(t) with v = (1/2, 1/3, 1/6), s_.2 = (0.2, 0, 0.6)
        assert INITIAL_X == (pytest.approx(0.1), 0.0, pytest.approx(0.1))
        assert INITIAL_W == (0.0, 1.0, 0.0)

    def test_consensus_is_exactly_02_on_all_nodes(self):
        res = run_table1()
        assert res.data["exact"] is True
        assert res.data["consensus"] == pytest.approx([0.2, 0.2, 0.2])
        assert res.data["expected"] == EXPECTED_CONSENSUS

    def test_mass_invariants(self):
        res = run_table1()
        assert res.data["mass_x"] == pytest.approx(0.2)  # = v2(t+1)
        assert res.data["mass_w"] == pytest.approx(1.0)

    def test_table_has_two_steps(self):
        res = run_table1()
        assert len(res.tables[0]._rows) == len(PARTNER_SCRIPT) == 2

    def test_step1_matches_worked_text_rows(self):
        # Worked text after step 1: N1 = (0.1, 0.5) beta 0.2.
        from repro.gossip.pushsum import scripted_push_sum

        r = scripted_push_sum(
            list(INITIAL_X), list(INITIAL_W), [list(PARTNER_SCRIPT[0])]
        )
        x, w = r.history[0]
        assert (x[0], w[0]) == (pytest.approx(0.1), pytest.approx(0.5))
        assert x[1] == 0.0 and w[1] == pytest.approx(0.5)
        assert x[2] == pytest.approx(0.1) and w[2] == 0.0

    def test_result_metadata(self):
        res = run_table1()
        assert res.experiment_id == "table1"
        assert res.notes  # fidelity note about the printed table
        assert "v2(t+1)" in res.title
