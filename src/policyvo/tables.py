"""Header-checked CSV tables, the one text format of every policyvo file.

A table is UTF-8 text: a header line of comma-separated column names, then one
line per row.  Each table declares, next to its header, a row format of one
printf-style conversion per column: ``%d`` for integers, ``%s`` for strings
and ``%.17g`` for floats, whose 17 significant digits read back bit for bit.
A row is formatted with one ``%``.  Writers check only that rows fit the
format, as their rows come from checked objects; readers pass every row
through a checking constructor (``Trajectory.from_stacks``, ``RPERecord``,
``WindowScore``, the manifest's row check) and name the file, and the line
where one row is at fault.  Each field has one rule, so what a constructor or
writer accepts reads back equal: :func:`parse_int` reads ``%d`` fields (``-``,
decimal digits, within int64), ``trajectory._check_index`` admits integer values
(not bools, within int64) and :func:`check_name` sequence names (one plain path
component).  No table stores a path: the dataset loader derives each one.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

_INTEGER = re.compile(r"-?\d+")     # \d is str.isdecimal's set


def write_table(path, header: str, row_format: str, rows) -> None:
    """Write ``header`` and one ``row_format % row`` line per row of fields.

    Raises ValueError naming the file, and writes nothing, when a row does
    not fit the format (a missing or extra field, a string in a number
    column) or a field holds a comma or a line break (which would split it
    on reading).
    """
    commas = header.count(",")
    try:
        lines = [header] + [row_format % tuple(row) for row in rows]
    except TypeError as exc:
        raise ValueError(f"{path}: a row does not have {commas + 1} fields "
                         f"of the format {row_format!r} ({exc})") from None
    text = "\n".join(lines) + "\n"
    # Every formatted line has the format's commas, so a count above that
    # total is a separator inside a field.
    if len(text.splitlines()) != len(lines) or text.count(",") != commas * len(lines):
        raise ValueError(f"{path}: a field holds a comma or a line break, "
                         f"or a row does not have {commas + 1} fields")
    _rewrite(path, text.encode("utf-8"))


def _rewrite(path, data: bytes) -> None:
    """Write ``data`` over the file's old bytes, then cut it to their length: truncating
    first, as ``open(path, "w")`` does, can stall tens of ms per file on ext4."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        f.truncate()


def read_table(path, header: str) -> list[list[str]]:
    """Rows of a table as lists of field strings, as they stand between the commas.

    Raises ValueError naming the file when its header is not ``header``, and
    naming the file and line when a row has a missing, extra or empty field.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad header in {path}: expected {header!r}")
    width = header.count(",") + 1
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"{path}, line {number}: expected {width} fields, "
                             f"got {len(fields)}")
        if "" in fields:
            raise ValueError(f"{path}, line {number}: empty field")
        rows.append(fields)
    return rows


def read_rows(path, header: str, make_row) -> list:
    """``make_row(*fields)`` of each row of a table; a ValueError it raises for a
    bad field is raised again naming the file and line."""
    rows = []
    for number, fields in enumerate(read_table(path, header), start=2):
        try:
            rows.append(make_row(*fields))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
    return rows


def parse_int(column: str, field: str) -> int:
    """The integer of a ``%d`` field: an optional ``-``, then decimal digits, within
    int64.  Any other field (a sign ``+``, a space, a ``_``, a point) raises ValueError
    naming the column, as in ``frame 'x' is not an integer``."""
    if not _INTEGER.fullmatch(field):
        raise ValueError(f"{column} {field!r} is not an integer")
    value = int(field)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{column} {field} is outside int64")
    return value


def check_name(name) -> None:
    """ValueError naming a sequence ``name`` unless it is one plain path component: a
    string, not empty, ``.`` or ``..``, with no surrounding whitespace, path separator,
    comma, line break or NUL."""
    if (not isinstance(name, str) or name in (".", "..") or name.strip() != name
            or name.splitlines() != [name] or any(c in name for c in "/\\,\0")):
        raise ValueError(f"sequence {name!r}: a name must be one plain path component")
