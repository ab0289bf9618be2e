"""Text rendering of experiment outputs — the tables and figure series.

The benchmark harness reproduces the paper's artifacts as *text*: a
:class:`TextTable` per table, a set of :class:`Series` per figure (one
series per plotted curve).  Everything renders deterministically so
outputs can be diffed across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

from repro.errors import ValidationError

__all__ = ["TextTable", "Series", "percentile"]

Cell = Union[str, int, float]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Deterministic pure-Python implementation matching NumPy's default
    (``linear``) method; used by telemetry summaries so reports do not
    need an array round-trip for a handful of wall times.  Returns
    ``0.0`` for an empty sequence.
    """
    if not 0.0 <= q <= 100.0:
        raise ValidationError(f"percentile q must be in [0, 100], got {q}")
    data = sorted(float(v) for v in values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def _fmt(value: Cell, float_fmt: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


class TextTable:
    """A fixed-column text table with aligned rendering.

    Example
    -------
    >>> t = TextTable(["eps", "steps"], title="demo")
    >>> t.add_row([1e-4, 28])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str], *, title: str = "", float_fmt: str = ".4g"):
        if not columns:
            raise ValidationError("a table needs at least one column")
        self.columns = list(columns)
        self.title = title
        self.float_fmt = float_fmt
        self._rows: List[List[str]] = []

    def add_row(self, values: Sequence[Cell]) -> None:
        """Append one row; must match the column count."""
        if len(values) != len(self.columns):
            raise ValidationError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self._rows.append([_fmt(v, self.float_fmt) for v in values])

    def render(self) -> str:
        """The table as aligned text (title, header, separator, rows)."""
        widths = [len(c) for c in self.columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self._rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass
class Series:
    """One plotted curve of a figure, as (x, y) pairs with a label."""

    label: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.x.append(float(x))
        self.y.append(float(y))

    def render(self) -> str:
        """The series as 'label: (x, y) (x, y) ...' text."""
        pts = " ".join(
            f"({xv:.4g}, {yv:.4g})"
            for xv, yv in zip(self.x, self.y)
        )
        return f"{self.label}: {pts}"

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValidationError("series x and y must have equal length")

    def __len__(self) -> int:
        return len(self.x)
