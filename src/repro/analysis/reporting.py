"""Plain-text rendering of experiment results.

The result registry (:mod:`repro.analysis.figures`) renders every figure,
table and study through these helpers, so each reproduction ends up as a
readable table on stdout, mirroring the rows/series of the paper's
figures.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence


def format_table(rows: Sequence[Sequence[str]], headers: Sequence[str]) -> str:
    """Render rows as a fixed-width text table."""
    columns = [list(headers)] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in columns) for i in range(len(headers))]

    def render(row: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))

    separator = "  ".join("-" * width for width in widths)
    lines = [render(headers), separator]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def format_percent(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.{digits}f}%"


def format_nested_mapping(table: Mapping[str, Mapping[str, float]],
                          row_header: str,
                          value_format: str = "{:.3f}",
                          title: Optional[str] = None,
                          columns: Optional[Iterable[str]] = None) -> str:
    """Render ``{row: {column: value}}`` as a text table.

    ``row_header`` heads the column of row names (``"workload"``,
    ``"system"``, ...).  ``columns`` fixes the column order (defaults to the
    order of the first row's keys).
    """
    rows = list(table.keys())
    if not rows:
        return title or ""
    column_names = list(columns) if columns is not None else list(table[rows[0]].keys())
    body = []
    for row in rows:
        cells = [row]
        for column in column_names:
            value = table[row].get(column, float("nan"))
            cells.append(value_format.format(value))
        body.append(cells)
    text = format_table(body, headers=[row_header] + column_names)
    if title:
        return f"{title}\n{text}"
    return text


def format_comparison(measured: Mapping[str, float], reference: Mapping[str, float],
                      title: Optional[str] = None,
                      value_format: str = "{:.2f}") -> str:
    """Render a measured-vs-paper comparison table keyed by the same names."""
    rows = []
    for key in measured:
        paper_value = reference.get(key)
        rows.append([
            key,
            value_format.format(measured[key]),
            value_format.format(paper_value) if paper_value is not None else "-",
        ])
    text = format_table(rows, headers=["name", "measured", "paper"])
    if title:
        return f"{title}\n{text}"
    return text


def print_report(text: str) -> None:
    """Print a report block surrounded by blank lines (benchmarks call this)."""
    print()
    print(text)
    print()
