"""Figure-series rendering: (x, y) series tables.

The benchmarks regenerate each paper figure as a data series;
:func:`series_table` prints one in a terminal-friendly form so the bench
output *is* the figure.
"""

from __future__ import annotations

import numpy as np

__all__ = ["series_table"]


def series_table(
    x_label: str,
    y_labels: list[str],
    x_values,
    y_series,
    float_format: str = "{:.4g}",
) -> str:
    """Tabulate one x column against one or more y series.

    Args:
        x_label: x-axis name.
        y_labels: one name per series.
        x_values: iterable of x values.
        y_series: list of iterables, one per label.
    """
    x_values = list(x_values)
    y_series = [list(series) for series in y_series]
    if len(y_labels) != len(y_series):
        raise ValueError("y_labels and y_series must align")
    for series in y_series:
        if len(series) != len(x_values):
            raise ValueError("every series must match the x axis length")
    headers = [x_label, *y_labels]
    widths = [max(len(h), 10) for h in headers]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for i, x in enumerate(x_values):
        cells = [_fmt(x, float_format).rjust(widths[0])]
        for j, series in enumerate(y_series):
            cells.append(_fmt(series[i], float_format).rjust(widths[j + 1]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _fmt(value, float_format: str) -> str:
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return float_format.format(value)
    return str(value)
