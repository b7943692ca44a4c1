"""Plain-text rendering of tables and figures for the experiment CLI.

The reproduction regenerates every table and figure of the paper as
text: tables as aligned columns and time-series figures as unicode
sparklines.  Keeping output textual makes the harness dependency-free
and diffable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def render_series(
    values: Sequence[float],
    label: str = "",
    width: int = 72,
    vmax: Optional[float] = None,
) -> str:
    """Render a time series as a one-line unicode sparkline."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return f"{label}: (empty)"
    if data.size > width:
        # Downsample by averaging equal chunks.
        edges = np.linspace(0, data.size, width + 1).astype(int)
        data = np.array(
            [data[a:b].mean() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])]
        )
    top = vmax if vmax is not None else (data.max() or 1.0)
    top = top or 1.0
    scaled = np.clip(data / top, 0.0, 1.0)
    indices = np.minimum(
        (scaled * len(_SPARK_LEVELS)).astype(int), len(_SPARK_LEVELS) - 1
    )
    spark = "".join(_SPARK_LEVELS[i] for i in indices)
    peak = float(np.asarray(values, dtype=float).max())
    return f"{label:<24s} |{spark}| peak={peak:.3g}"
