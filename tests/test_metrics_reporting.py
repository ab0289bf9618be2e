"""Text tables and figure series rendering."""

import pytest

from repro.errors import ValidationError
from repro.metrics.reporting import Series, TextTable, percentile


class TestTextTable:
    def test_render_aligns_columns(self):
        t = TextTable(["name", "value"], title="demo")
        t.add_row(["alpha", 1])
        t.add_row(["a-very-long-name", 2.5])
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        # All data lines have equal column starts.
        assert lines[3].index("1") == lines[4].index("2.5")

    def test_float_formatting(self):
        t = TextTable(["x"], float_fmt=".2e")
        t.add_row([0.000123])
        assert "1.23e-04" in t.render()

    def test_row_arity_checked(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValidationError):
            t.add_row([1])

    def test_needs_columns(self):
        with pytest.raises(ValidationError):
            TextTable([])

    def test_str_is_render(self):
        t = TextTable(["a"])
        t.add_row([1])
        assert str(t) == t.render()


class TestSeries:
    def test_add_and_len(self):
        s = Series("curve")
        s.add(1, 2.0)
        s.add(2, 4.0)
        assert len(s) == 2
        assert s.x == [1.0, 2.0]
        assert s.y == [2.0, 4.0]

    def test_render(self):
        s = Series("n=1000")
        s.add(0.01, 29)
        out = s.render()
        assert out.startswith("n=1000:")
        assert "(0.01, 29)" in out

    def test_mismatched_init_rejected(self):
        with pytest.raises(ValidationError):
            Series("bad", x=[1.0], y=[])


class TestPercentile:
    def test_interpolation_matches_numpy_default(self):
        import numpy as np

        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        for q in (0, 10, 25, 50, 75, 90, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_edge_cases(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 90) == 7.0
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValidationError):
            percentile([1.0], 101)
        with pytest.raises(ValidationError):
            percentile([1.0], -1)
