"""ASCII chart rendering."""

import pytest

from repro.errors import ValidationError
from repro.metrics import ascii_plot
from repro.metrics.ascii_plot import render_chart
from repro.metrics.reporting import Series


def make_series(label="s", pts=((1, 1), (2, 4), (3, 9))):
    s = Series(label=label)
    for x, y in pts:
        s.add(x, y)
    return s


class TestRendering:
    def test_contains_glyphs_and_legend(self):
        out = render_chart([make_series("squares")])
        assert "*" in out
        assert "* squares" in out

    def test_two_series_distinct_glyphs(self):
        out = render_chart([make_series("a"), make_series("b", ((1, 2), (3, 5)))])
        assert "* a" in out
        assert "+ b" in out
        assert "+" in out.splitlines()[3] or any("+" in l for l in out.splitlines())

    def test_axis_labels_present(self):
        out = render_chart(
            [make_series()], x_label="epsilon", y_label="steps", title="demo"
        )
        assert out.splitlines()[0] == "demo"
        assert "epsilon" in out
        assert "steps" in out

    def test_min_max_labels(self):
        out = render_chart([make_series(pts=((1, 10), (5, 90)))])
        assert "10" in out and "90" in out
        assert "1" in out and "5" in out

    def test_extremes_plotted_at_edges(self, monkeypatch):
        monkeypatch.setattr(ascii_plot, "_WIDTH", 10)
        monkeypatch.setattr(ascii_plot, "_HEIGHT", 5)
        out = render_chart([make_series(pts=((0, 0), (1, 1)))])
        lines = out.splitlines()
        plot = [l.split("|", 1)[1] for l in lines if "|" in l]
        assert plot[0].rstrip().endswith("*")  # max at top-right
        assert plot[-1].lstrip("|").startswith("*")  # min at bottom-left

    def test_log_axes(self):
        s = make_series(pts=((1e-5, 10), (1e-3, 20), (1e-1, 30)))
        out = render_chart([s], log_x=True)
        # On a log axis the three points are evenly spaced; on linear
        # the first two would collapse into one column.
        row_cols = [line.find("*") for line in out.splitlines() if "*" in line]
        assert len(set(row_cols)) == 3

    def test_flat_series_renders(self):
        out = render_chart([make_series(pts=((1, 5), (2, 5)))])
        assert "*" in out


class TestValidation:
    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            render_chart([Series(label="empty")])

    def test_log_axis_requires_positive(self):
        with pytest.raises(ValidationError):
            render_chart([make_series(pts=((0, 1), (1, 2)))], log_x=True)
        with pytest.raises(ValidationError):
            render_chart([make_series(pts=((1, -1), (2, 2)))], log_y=True)


class TestExperimentIntegration:
    def test_result_render_with_chart(self):
        from repro.experiments.base import ExperimentResult

        res = ExperimentResult(
            "demo",
            "demo title",
            series=[make_series("curve")],
            chart_hints={"x_label": "n"},
        )
        plain = res.render()
        charted = res.render(chart=True)
        assert "[chart] demo" not in plain
        assert "[chart] demo" in charted

    def test_cli_chart_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "structured", "--quick", "--chart"]) == 0
        assert "[chart] structured" in capsys.readouterr().out
