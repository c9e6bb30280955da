"""CSV export/import used by the command-line surface, and the one reader of
every input text file (CSVs, coefficient files, scenario files)."""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .errors import InvalidArgumentError


def format_value(v) -> str:
    """One CSV field: integers exactly, anything else with 12 significant
    digits (the per-value reference for export_csv's row template)."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def export_csv(path, columns) -> None:
    """Write a table as newline-terminated UTF-8: the column names, then one
    row per index.

    ``columns`` maps each name to its values, in file order; columns of
    unequal length are an ``InvalidArgumentError``. A column whose values
    are all integers is written with ``%d``, any other with ``%.12g``: the
    bytes of ``format_value`` on every value of such columns.

    Rows are written ``_CHUNK_ROWS`` at a time: each array column's slice is
    converted to Python numbers with one ``tolist()`` (the same values, so
    the same bytes, as formatting the NumPy scalars), the chunk's rows are
    formatted with the row template and written with one ``write``. Memory
    stays bounded by one chunk, whatever the table's length.
    """
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise InvalidArgumentError(f"columns of unequal length: {lengths}")
    cols = list(columns.values())
    fmt = ",".join("%d" if _integers(col) else "%.12g" for col in cols) + "\n"
    rows = next(iter(lengths.values()), 0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(0, rows, _CHUNK_ROWS):
            parts = [col[i:i + _CHUNK_ROWS] for col in cols]
            parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
            fh.write("".join([fmt % row for row in zip(*parts)]))


# Rows per chunk of export_csv: large enough to amortize a write, small
# enough that a chunk's Python numbers stay well under a megabyte.
_CHUNK_ROWS = 1024


def _integers(col) -> bool:
    if isinstance(col, np.ndarray):
        return col.dtype.kind in "iu"
    return all(issubclass(kind, (int, np.integer)) for kind in set(map(type, col)))


def read_text(path) -> str:
    """A UTF-8 text file's contents; other bytes are an
    ``InvalidArgumentError``, an unreadable file raises its ``OSError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path} is not UTF-8 text: {exc}") from None


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read back a numeric CSV written by export_csv.

    Lines are stripped and blank ones dropped; the first is the header. The
    body is parsed in one pass: a check of every row's comma count, then
    one ``float()`` per field of the rows joined by commas (the fields of
    each row in order, so the same values as parsing row by row), reshaped
    to the header's width. An empty file, a row whose field count differs
    from the header's, or a field that is not a number is an
    ``InvalidArgumentError`` naming the first such line, as is a file that
    is not UTF-8; a file that cannot be read raises its ``OSError``.
    """
    lines = [ln.strip() for ln in read_text(path).split("\n")]
    rows = [ln for ln in lines if ln]
    if not rows:
        raise InvalidArgumentError(f"{path} is empty")
    header, body = rows[0].split(","), rows[1:]
    if set(map(str.count, body, repeat(","))) <= {len(header) - 1}:
        try:
            values = map(float, ",".join(body).split(",") if body else ())
            return header, np.array(list(values), dtype=float).reshape(-1, len(header))
        except ValueError:
            pass
    raise InvalidArgumentError(f"{path}: {_first_bad_row(lines, len(header))}")


def data_line(path, row: int) -> int:
    """The line number in ``path`` of data row ``row`` (from 0) of a CSV
    that ``read_csv`` accepted; blank lines are not rows."""
    lines = read_text(path).split("\n")
    return [no for no, ln in enumerate(lines, 1) if ln.strip()][row + 1]


def _first_bad_row(lines, width) -> str:
    numbered = [(no, ln) for no, ln in enumerate(lines, 1) if ln]
    for no, ln in numbered[1:]:
        fields = ln.split(",")
        if len(fields) != width:
            return f"line {no} has {len(fields)} fields, the header {width}"
        for v in fields:
            try:
                float(v)
            except ValueError:
                return f"line {no}: {v!r} is not a number"
    return "rows do not match the header"
