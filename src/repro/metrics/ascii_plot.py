"""ASCII line charts for figure series — terminal-native figure output.

The paper's figures are line charts; the experiment harness regenerates
their *data* as :class:`~repro.metrics.reporting.Series`.  This module
renders those series as an ASCII chart so `gossiptrust run fig3` shows
an actual figure in the terminal, not only coordinate lists.

Rendering rules: one glyph per series (``*+ox#@`` cycling), points
plotted on a character grid with linear or log axes, a legend below,
min/max axis labels.  Overlapping points show the later series' glyph.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import ValidationError
from repro.metrics.reporting import Series

__all__ = ["render_chart"]

_GLYPHS = "*+ox#@%&"

#: plot-area size in characters (excluding axes and labels)
_WIDTH = 64
_HEIGHT = 16


def _transform(value: float, lo: float, hi: float, log: bool) -> float:
    """Map value to [0, 1] under the chosen axis scale."""
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5
    return (value - lo) / (hi - lo)


def render_chart(
    series: Sequence[Series],
    *,
    log_x: bool = False,
    log_y: bool = False,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render series as an ASCII chart.

    Parameters
    ----------
    series:
        The curves to plot (at least one non-empty), on a plot area of
        ``_WIDTH`` x ``_HEIGHT`` characters.
    log_x, log_y:
        Logarithmic axes (all plotted values must then be > 0).
    title, x_label, y_label:
        Annotations.

    Returns
    -------
    str
        The chart, ready to print.
    """
    width, height = _WIDTH, _HEIGHT
    populated = [s for s in series if len(s) > 0]
    if not populated:
        raise ValidationError("nothing to plot: all series are empty")
    xs = [x for s in populated for x in s.x]
    ys = [y for s in populated for y in s.y]
    if log_x and min(xs) <= 0:
        raise ValidationError("log_x requires strictly positive x values")
    if log_y and min(ys) <= 0:
        raise ValidationError("log_y requires strictly positive y values")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for si, s in enumerate(populated):
        glyph = _GLYPHS[si % len(_GLYPHS)]
        for x, y in zip(s.x, s.y):
            col = round(_transform(x, x_lo, x_hi, log_x) * (width - 1))
            row = round(_transform(y, y_lo, y_hi, log_y) * (height - 1))
            grid[height - 1 - row][col] = glyph

    fmt = "{:.3g}"
    lines: List[str] = []
    if title:
        lines.append(title)
    y_hi_label = fmt.format(y_hi)
    y_lo_label = fmt.format(y_lo)
    margin = max(len(y_hi_label), len(y_lo_label), len(y_label)) + 1
    for r, row_chars in enumerate(grid):
        if r == 0:
            prefix = y_hi_label.rjust(margin - 1)
        elif r == height - 1:
            prefix = y_lo_label.rjust(margin - 1)
        elif r == height // 2:
            prefix = y_label.rjust(margin - 1)
        else:
            prefix = " " * (margin - 1)
        lines.append(f"{prefix}|{''.join(row_chars)}")
    lines.append(" " * margin + "-" * width)
    x_lo_label = fmt.format(x_lo)
    x_hi_label = fmt.format(x_hi)
    gap = width - len(x_lo_label) - len(x_hi_label) - len(x_label)
    gap_left = max(1, gap // 2)
    gap_right = max(1, gap - gap_left)
    lines.append(
        " " * margin
        + x_lo_label
        + " " * gap_left
        + x_label
        + " " * gap_right
        + x_hi_label
    )
    legend = "   ".join(
        f"{_GLYPHS[si % len(_GLYPHS)]} {s.label}" for si, s in enumerate(populated)
    )
    lines.append(" " * margin + legend)
    return "\n".join(lines)
