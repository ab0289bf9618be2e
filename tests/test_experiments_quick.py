"""Smoke-scale runs of every experiment, with paper-shape assertions.

These run the same code paths as the full benchmarks at reduced scale,
and assert the *qualitative* claims (who wins, what grows) rather than
absolute values.
"""

import pytest

from repro.experiments.registry import run_experiment


@pytest.fixture(scope="module")
def fig3():
    return run_experiment("fig3", quick=True)


@pytest.fixture(scope="module")
def table3():
    return run_experiment("table3", quick=True)


@pytest.fixture(scope="module")
def fig4a():
    return run_experiment("fig4a", quick=True)


@pytest.fixture(scope="module")
def fig4b():
    return run_experiment("fig4b", quick=True)


@pytest.fixture(scope="module")
def fig5():
    return run_experiment("fig5", quick=True)


class TestFig3Shape:
    def test_steps_grow_as_epsilon_shrinks(self, fig3):
        for series in fig3.series:
            # x descending in epsilon order given (1e-2, 1e-3).
            assert series.y[-1] > series.y[0] - 2

    def test_larger_network_needs_no_fewer_steps(self, fig3):
        small = fig3.series_by_label("n=200")
        large = fig3.series_by_label("n=400")
        assert large.y[0] >= small.y[0]

    def test_table_rows_complete(self, fig3):
        assert len(fig3.tables[0]._rows) == 4  # 2 sizes x 2 epsilons


class TestTable3Shape:
    def test_tighter_settings_cost_more(self, table3):
        rows = table3.data["rows"]
        tight = rows["1e-05/0.0001"]
        loose = rows["0.001/0.01"]
        assert tight["cycles"] >= loose["cycles"]
        assert tight["steps"] > loose["steps"]

    def test_tighter_settings_are_more_accurate(self, table3):
        rows = table3.data["rows"]
        assert rows["1e-05/0.0001"]["gossip_error"] < rows["0.001/0.01"]["gossip_error"]
        assert (
            rows["1e-05/0.0001"]["aggregation_error"]
            < rows["0.001/0.01"]["aggregation_error"]
        )

    def test_gossip_error_well_below_epsilon(self, table3):
        rows = table3.data["rows"]
        assert rows["0.0001/0.001"]["gossip_error"] < 1e-4


class TestFig4Shape:
    def test_error_grows_with_malicious_fraction(self, fig4a):
        for series in fig4a.series:
            assert series.y[-1] > series.y[0]

    def test_power_nodes_not_harmful_at_smoke_scale(self, fig4a):
        # The strict "alpha=0.15 beats alpha=0" claim needs the paper's
        # scale (n=1000 -> q=10 anchors dilute selection mistakes) and
        # is asserted by benchmarks/bench_fig4.py; at smoke scale (q=2)
        # we only check the mechanism doesn't blow the error up.
        base = fig4a.data["alpha=0"][0.2]
        power = fig4a.data["alpha=0.15"][0.2]
        assert power < 1.5 * base

    def test_no_attack_no_error(self, fig4a):
        for label in ("alpha=0", "alpha=0.15"):
            assert fig4a.data[label][0.0] < 1e-6

    def test_collusive_power_nodes_reduce_error(self, fig4b):
        plain = fig4b.data["5% colluders, alpha=0"]
        power = fig4b.data["5% colluders, alpha=0.15"]
        for gs in plain:
            assert power[gs] < plain[gs]


class TestFig5Shape:
    def test_gossiptrust_beats_notrust_under_attack(self, fig5):
        gt = fig5.data["GossipTrust"][0.2]
        nt = fig5.data["NoTrust"][0.2]
        assert gt > nt

    def test_attack_free_world_equal_policies(self, fig5):
        gt = fig5.data["GossipTrust"][0.0]
        nt = fig5.data["NoTrust"][0.0]
        assert gt == pytest.approx(nt, abs=0.05)


class TestExtensionExperiments:
    def test_fault_runs_and_reports(self):
        res = run_experiment("fault", quick=True)
        assert res.data["loss/0"] < res.data["loss/0.2"]

    def test_storage_runs_and_reports(self):
        res = run_experiment("storage", quick=True)
        assert res.data["6"]["mean_rel_error"] < res.data["4"]["mean_rel_error"]

    def test_overhead_runs_and_reports(self):
        res = run_experiment("overhead", quick=True)
        for n_key, row in res.data.items():
            assert row["gossip_messages"] < row["eigentrust_messages"]
