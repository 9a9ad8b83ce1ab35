"""Header-checked CSV tables, the one text format of every policyvo file.

A table is a header line of comma-separated column names, then one line per
row.  Floats are written with 17 significant digits (``.17g``), so they read
back bit for bit; strings and integers are written as they print.
"""

from __future__ import annotations

import numbers
from pathlib import Path


def _field(value) -> str:
    if isinstance(value, (str, numbers.Integral)):
        return str(value)
    return f"{value:.17g}"


def write_table(path, header: str, rows) -> None:
    """Write ``header`` and one comma-joined line per row of fields."""
    lines = [header] + [",".join(map(_field, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path, header: str) -> list[list[str]]:
    """Rows of a table as lists of field strings.

    Raises ValueError naming the file when its header is not ``header``, and
    naming the file and line when a row has a missing, extra or empty field.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"bad header in {path}: expected {header!r}")
    width = header.count(",") + 1
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.strip().split(",")
        if len(fields) != width:
            raise ValueError(f"{path}, line {number}: expected {width} fields, "
                             f"got {len(fields)}")
        if "" in fields:
            raise ValueError(f"{path}, line {number}: empty field")
        rows.append(fields)
    return rows
