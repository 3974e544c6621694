"""Plain-text table rendering for the experiment harness."""

from __future__ import annotations

from typing import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table.

    Numbers are right-aligned and floats shown with no decimals above
    100 (matching the paper's millisecond tables) and two decimals
    below.
    """
    formatted = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if abs(cell) >= 100:
            return f"{cell:,.0f}"
        return f"{cell:.2f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)
