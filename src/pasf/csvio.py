"""CSV export/import used by the command-line surface, and the one reader of
every input text file (CSVs, coefficient files, scenario files)."""

from __future__ import annotations

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
    """
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise InvalidArgumentError(f"columns of unequal length: {lengths}")
    fmt = ",".join("%d" if _integers(col) else "%.12g"
                   for col in columns.values()) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(fmt % row for row in zip(*columns.values()))


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

    An empty file, a row whose field count differs from the header's, or a
    field that is not a number is an ``InvalidArgumentError`` (a row names
    its line), as is a file that is not UTF-8; a file that cannot be read
    raises its ``OSError``.
    """
    lines = [ln.strip() for ln in read_text(path).split("\n")]
    rows = [ln for ln in lines if ln]
    if not rows:
        raise InvalidArgumentError(f"{path} is empty")
    header = rows[0].split(",")
    try:
        data = np.array(
            [[float(v) for v in ln.split(",")] for ln in rows[1:]], dtype=float
        )
    except ValueError:
        data = None
    if data is None or data.size and data.shape[1] != len(header):
        raise InvalidArgumentError(f"{path}: {_first_bad_row(lines, len(header))}")
    if data.size == 0:
        data = data.reshape(0, len(header))
    return header, data


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
