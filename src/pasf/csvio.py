"""CSV export/import used by the command-line surface, and the one reader of
every input text file (CSVs, coefficient files, scenario files)."""

from __future__ import annotations

import os
from collections.abc import Mapping
from itertools import chain, repeat

import numpy as np

from .errors import InvalidArgumentError


def format_value(v) -> str:
    """One CSV field: integers exactly, anything else with 12 significant
    digits (the per-value reference for export_csv's row template)."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def export_csv(path, columns) -> int:
    """Write a table as newline-terminated UTF-8: the column names, then one
    row per index; returns the number of rows.

    ``columns`` maps each name to its values, in file order, or is an
    iterable of such maps, one per chunk of consecutive rows, that all name
    the first chunk's columns in its order. Columns of unequal length in a
    chunk, or a chunk naming other columns, are an ``InvalidArgumentError``.
    A column whose values in a chunk are all integers is written with
    ``%d``, any other with ``%.12g``: the bytes of ``format_value`` on every
    value of such columns.

    The file is written under a temporary name in ``path``'s directory and
    renamed to ``path`` when complete, so ``path`` is never left partly
    written: on any failure (the chunks' own included) the temporary file
    is removed and ``path`` is as before. A temporary file that cannot be
    made or renamed raises the ``OSError`` of ``path``.

    Rows are written ``_CHUNK_ROWS`` at a time: each array column's slice is
    converted to Python numbers with one ``tolist()`` (the same values, so
    the same bytes, as formatting the NumPy scalars), the slice's rows are
    formatted with the row template and written with one ``write``. Memory
    stays bounded by one chunk, whatever the table's length.
    """
    chunks = iter((columns,) if isinstance(columns, Mapping) else columns)
    first = next(chunks)
    names = list(first)
    _check_chunk(first, names)
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    rows = 0
    try:
        with fh:
            fh.write(",".join(names) + "\n")
            for chunk in chain((first,), chunks):
                _check_chunk(chunk, names)
                rows += _write_rows(fh, list(chunk.values()))
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return rows


def _check_chunk(columns, names) -> None:
    if list(columns) != names:
        raise InvalidArgumentError(f"a chunk's columns {list(columns)} are not {names}")
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise InvalidArgumentError(f"columns of unequal length: {lengths}")


def _write_rows(fh, cols) -> int:
    """Write the rows of one chunk's columns (of equal length)."""
    fmt = ",".join("%d" if _integers(col) else "%.12g" for col in cols) + "\n"
    rows = len(cols[0]) if cols else 0
    for i in range(0, rows, _CHUNK_ROWS):
        parts = [col[i:i + _CHUNK_ROWS] for col in cols]
        parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
        fh.write("".join([fmt % row for row in zip(*parts)]))
    return rows


# Rows per chunk of export_csv: large enough to amortize a write, small
# enough that a chunk's Python numbers stay well under a megabyte.
_CHUNK_ROWS = 1024


def _integers(col) -> bool:
    if isinstance(col, np.ndarray):
        return col.dtype.kind in "iu"
    return all(issubclass(kind, (int, np.integer)) for kind in set(map(type, col)))


def read_text(path) -> str:
    """A UTF-8 text file's contents, without a leading byte-order mark;
    other bytes are an ``InvalidArgumentError``, an unreadable file raises
    its ``OSError``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def _not_utf8(path, exc) -> InvalidArgumentError:
    return InvalidArgumentError(f"{path} is not UTF-8 text: {exc}")


# Characters per read of iter_csv: about 5,400 rows of a t,x file with
# 17-digit values. A chunk's text, lines, fields and floats then stay near a
# megabyte; each chunk also costs about 0.2 ms, which smaller reads multiply.
_READ_CHARS = 1 << 17


class CsvChunk:
    """Consecutive rows of a CSV read by ``iter_csv``: the ``header``'s
    fields, the rows' values as a (rows, width) float array ``data``, and
    the ``text`` of the lines they were parsed from (blank ones included),
    the first of which is line ``first`` of the file."""

    __slots__ = ("header", "data", "text", "first")

    def __init__(self, header, data, text, first):
        self.header, self.data, self.text, self.first = header, data, text, first

    def line(self, row: int) -> int:
        """The line number in the file of the chunk's row ``row`` (from 0)."""
        lines = enumerate(self.text.split("\n"), self.first)
        return [no for no, ln in lines if ln.strip()][row]


def iter_csv(path):
    """Read a numeric CSV written by export_csv as ``CsvChunk``s, about
    ``_READ_CHARS`` characters at a time, holding one chunk's text.

    The file is read as UTF-8 (a leading byte-order mark skipped) with
    universal newlines, and its lines are numbered from 1 after newline
    translation, blank ones included. Lines are stripped; the first one
    not blank is the header, and the other lines not blank are rows. The
    complete lines of each read after the header make one chunk, so a file
    with a header has a chunk even without rows. A chunk is parsed in one pass: a check of every
    row's comma count, then one ``float()`` per field of the rows joined
    by commas (the fields of each row in order, so the same values as
    parsing row by row), reshaped to the header's width.

    Errors come in the order of reading the whole file first: bytes that
    are not UTF-8 anywhere in the file (named by their byte position in the
    file), then an empty file, then the first row whose field count differs
    from the header's or that holds a field that is not a number; each is
    an ``InvalidArgumentError``. A bad row stops the chunks, and the rest of
    the file is only decoded. A file that cannot be read raises its
    ``OSError``.
    """
    header = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for text, first in _blocks(fh):
                if header is None:
                    header, text, first = _header(text, first)
                    if header is None:
                        continue
                data = _parse(text, len(header))
                if data is None:
                    error = _first_bad_row(text, first, len(header))
                    while fh.read(_READ_CHARS):
                        pass
                    raise InvalidArgumentError(f"{path}: {error}")
                yield CsvChunk(header, data, text, first)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, _whole_file_error(path) or exc) from None
    if header is None:
        raise InvalidArgumentError(f"{path} is empty")


def _blocks(fh):
    """The lines of the text file ``fh``, about ``_READ_CHARS`` characters
    at a time: (complete lines joined by newlines, the number of the first
    line). A last line without a newline is a block of its own."""
    no, carry = 1, ""
    while text := fh.read(_READ_CHARS):
        cut = text.rfind("\n")
        if cut < 0:
            carry += text
            continue
        block, carry = carry + text[:cut], text[cut + 1:]
        del text  # not held while the block is parsed
        yield block, no
        no += block.count("\n") + 1
    if carry:
        yield carry, no


def _header(text, first):
    """The fields of the first line of ``text`` that is not blank, and the
    lines after it with the number of the first; no header when every line
    is blank."""
    lines = text.split("\n")
    for i, ln in enumerate(lines):
        if ln.strip():
            return ln.strip().split(","), "\n".join(lines[i + 1:]), first + i + 1
    return None, text, first


def _whole_file_error(path) -> UnicodeDecodeError | None:
    """The error of decoding the whole file at once, which names a byte
    position in the file, not in a read."""
    with open(path, "rb") as fh:
        try:
            fh.read().decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            return exc
    return None


def _parse(text, width):
    """The values of the rows among the lines of ``text`` as a (rows,
    width) array, or None when a row's field count differs from ``width``
    or a field is not a number."""
    rows = [ln for ln in map(str.strip, text.split("\n")) if ln]
    if set(map(str.count, rows, repeat(","))) <= {width - 1}:
        joined = ",".join(rows)
        del rows  # no line is held while the fields are: that halves the peak
        fields = joined.split(",") if joined else []
        try:
            return np.fromiter(map(float, fields), float, len(fields)).reshape(-1, width)
        except ValueError:
            pass
    return None


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """The header and the (rows, width) values of a numeric CSV: the
    concatenation of its ``iter_csv`` chunks, with their errors."""
    header, parts = None, []
    for chunk in iter_csv(path):
        header = chunk.header
        parts.append(chunk.data)
    return header, np.concatenate(parts)


def _first_bad_row(text, first, width) -> str:
    for no, ln in enumerate(text.split("\n"), first):
        ln = ln.strip()
        if not ln:
            continue
        fields = ln.split(",")
        if len(fields) != width:
            return f"line {no} has {len(fields)} fields, the header {width}"
        for v in fields:
            try:
                float(v)
            except ValueError:
                return f"line {no}: {v!r} is not a number"
    return "rows do not match the header"
