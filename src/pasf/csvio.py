"""CSV export/import used by the command-line surface."""

from __future__ import annotations

import numpy as np

from .errors import PasfError


class CsvIoError(PasfError):
    pass


def format_value(v) -> str:
    """One CSV field: integers exactly, anything else with 12 significant
    digits (the per-value reference for export_csv's row template)."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def export_csv(path, header, rows) -> None:
    """Write header plus rows, newline-terminated UTF-8.

    Each row is formatted by one ``%`` template, ``%d`` for the columns that
    hold integers in the first row and ``%.12g`` for the others: the same
    bytes as ``format_value`` on every value, as long as each column keeps its
    first row's type.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            rows = iter(rows)
            first = next(rows, None)
            if first is None:
                return
            fmt = ",".join(
                "%d" if isinstance(v, (int, np.integer)) else "%.12g"
                for v in first
            ) + "\n"
            fh.write(fmt % tuple(first))
            fh.writelines(fmt % tuple(row) for row in rows)
    except OSError as exc:
        raise CsvIoError(f"cannot write {path}: {exc}") from exc


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read back a numeric CSV written by export_csv."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise CsvIoError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise CsvIoError(f"{path} is empty")
    header = lines[0].split(",")
    data = np.array(
        [[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float
    )
    if data.size == 0:
        data = data.reshape(0, len(header))
    return header, data
