"""CSV import/export for tables.

Minimal, dependency-free CSV round-tripping so the CLI (and downstream
users without pandas) can anonymize real files:

* :func:`read_csv` — header-based load with optional explicit column kinds;
  unspecified columns are sniffed (all-numeric → numeric, else categorical).
* :func:`write_csv` — writes decoded values.
* :func:`parse_csv` / :func:`format_csv` — the same two over in-memory,
  comma-separated bytes, decoded and encoded exactly as a file would be
  (the service parses request payloads and serializes releases through
  them).

Ingest reads the text once to pick a parse. Text holding no quote
character and no CR is split into lines, and the n non-blank rows are
joined with a marker (delimiter, LF, delimiter) and split once on the
delimiter. Row lines hold no LF, so the rows are all ``width`` cells wide
exactly when there are ``(width + 1) * n - 1`` cells and every
``(width + 1)``-th one is a marker; columns are then stride slices.
Anything else — quoted fields, CRLF line ends such as :func:`write_csv`
itself emits, an LF delimiter — drops that text and is parsed by the
``csv`` module streaming from the source again (a pipe, which cannot
rewind, is parsed from the text). Both paths yield the stripped header
and the same raw cells, so the same table: a categorical column is
dictionary-encoded from its raw cells, stripping each distinct cell once,
and a numeric column parses each stripped cell.

Egress renders each category, or each distinct numeric value, once and
quotes it once by the ``csv`` module's default dialect: a label holding the
delimiter, a quote, CR or LF is wrapped in quotes with each quote doubled,
and a one-column table's empty label is written ``""``. The body is then
joined row by row with ``str.join``, :data:`_WRITE_ROWS` rows per write.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Sequence, TextIO

import numpy as np

from ..errors import SchemaError
from .table import Column, Table

__all__ = ["format_csv", "parse_csv", "read_csv", "write_csv"]

#: How :func:`parse_csv` errors name the bytes they reject.
_PAYLOAD = "'data'"

#: Rows per write of a CSV body. Each block is joined into one string
#: before it is written, so this bounds that string, not the table.
_WRITE_ROWS = 16_384


def read_csv(
    path: str | os.PathLike,
    categorical: Sequence[str] = (),
    numeric: Sequence[str] = (),
    delimiter: str = ",",
) -> Table:
    """Load a CSV with a header row into a :class:`Table`.

    Columns named in ``categorical``/``numeric`` are typed accordingly;
    every other column is numeric if all its values parse as floats, else
    categorical. Values are stripped of surrounding whitespace. The file is
    read as UTF-8; a leading byte-order mark, as spreadsheet "CSV UTF-8"
    exports write, is dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        header, cells = _cells(handle, path, delimiter)
    return _table(header, cells, categorical, numeric)


def parse_csv(
    data: bytes, categorical: Sequence[str] = (), numeric: Sequence[str] = ()
) -> Table:
    """:func:`read_csv` over in-memory, comma-separated bytes."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as handle:
        header, cells = _cells(handle, _PAYLOAD, ",")
    return _table(header, cells, categorical, numeric)


def write_csv(table: Table, path: str | os.PathLike, delimiter: str = ",") -> None:
    """Write a table (decoded values) to a CSV file with a header row."""
    with open(path, "w", newline="") as handle:
        _write(table, handle, delimiter)


def format_csv(table: Table) -> bytes:
    """The bytes :func:`write_csv` would write for ``table``."""
    buffer = io.BytesIO()
    with io.TextIOWrapper(buffer, newline="") as handle:
        _write(table, handle, ",")
        handle.flush()
        return buffer.getvalue()


def _table(
    header: list[str],
    cells: list[list[str]],
    categorical: Sequence[str],
    numeric: Sequence[str],
) -> Table:
    declared = set(categorical) | set(numeric)
    unknown = declared - set(header)
    if unknown:
        raise SchemaError(f"declared columns {sorted(unknown)} not in CSV header {header}")
    # A repeated name keeps its last column here; Table then rejects it.
    by_name = dict(zip(header, cells))
    columns: list[Column] = []
    for name in header:
        raw = by_name[name]
        if name in categorical:
            columns.append(_categorical(name, raw))
            continue
        try:
            numbers = np.fromiter(
                map(float, map(str.strip, raw)), dtype=np.float64, count=len(raw)
            )
        except ValueError:
            if name in numeric:
                bad = next(v for v in map(str.strip, raw) if not _is_number(v))
                raise SchemaError(f"column {name!r}: {bad!r} is not numeric") from None
            columns.append(_categorical(name, raw))
        else:
            columns.append(Column.numeric(name, numbers))
    return Table(columns)


def _categorical(name: str, cells: list[str]) -> Column:
    """``Column.categorical`` of the stripped cells, each distinct cell stripped once.

    Raw variants that strip to the same text share its code.
    """
    distinct = dict.fromkeys(cells)
    texts = list(map(str.strip, distinct))
    categories = sorted(set(texts))
    code = {text: i for i, text in enumerate(categories)}
    index = dict(zip(distinct, map(code.__getitem__, texts)))
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.int32, count=len(cells))
    return Column.from_codes(name, codes, categories)


def _cells(
    handle: TextIO, source: str | os.PathLike, delimiter: str
) -> tuple[list[str], list[list[str]]]:
    """The stripped header and one list of raw cells per column."""
    text = handle.read()
    # The split path marks row ends with a lone LF cell, which an LF
    # delimiter would split apart.
    if len(delimiter) != 1 or delimiter == "\n" or '"' in text or "\r" in text:
        # The csv module streams from the source again. Only a source that
        # cannot rewind, such as a pipe, is parsed from the text read here.
        if handle.seekable():
            handle.seek(0)
        else:
            handle = io.StringIO(text, newline="")
        del text
        return _csv_cells(handle, source, delimiter)
    if not text:
        raise SchemaError(f"{source}: empty file")
    # Each intermediate (lines, rows, the joined text) is dropped as soon as
    # the next exists: these, not the table, set a CLI run's peak memory.
    lines = text.split("\n")
    del text
    # csv.reader reads a blank line as an empty row and skips blank data rows.
    header = [name.strip() for name in lines[0].split(delimiter)] if lines[0] else []
    rows = list(filter(None, lines[1:]))
    del lines
    if not rows:
        raise SchemaError(f"{source}: no data rows")
    n, width = len(rows), len(header)
    # Row lines hold no LF, so a cell that is exactly LF is a row marker.
    marker = delimiter + "\n" + delimiter
    joined = marker.join(rows)
    del rows
    cells = joined.split(delimiter)
    del joined
    stride = width + 1
    if len(cells) != stride * n - 1 or cells[width::stride].count("\n") != n - 1:
        # Rebuild the rows only to name the first ragged one.
        rows = delimiter.join(cells).split(marker)
        counts = [row.count(delimiter) + 1 for row in rows]
        i = next(i for i, count in enumerate(counts) if count != width)
        raise SchemaError(f"{source}: row {i + 2} has {counts[i]} cells, header has {width}")
    return header, [cells[j::stride] for j in range(width)]


def _csv_cells(
    handle: TextIO, source: str | os.PathLike, delimiter: str
) -> tuple[list[str], list[list[str]]]:
    """:func:`_cells` through the ``csv`` module (quoted fields, CR line ends)."""
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = [name.strip() for name in next(reader)]
    except StopIteration:
        raise SchemaError(f"{source}: empty file") from None
    rows = list(filter(None, reader))
    if not rows:
        raise SchemaError(f"{source}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(
                f"{source}: row {i + 2} has {len(row)} cells, header has {len(header)}"
            )
    return header, [[row[j] for row in rows] for j in range(len(header))]


def _write(table: Table, handle: TextIO, delimiter: str) -> None:
    # csv.writer writes the header and validates the delimiter.
    csv.writer(handle, delimiter=delimiter).writerow(table.column_names)
    alone = len(table.column_names) == 1
    columns = [_labels(column, delimiter, alone) for column in table]
    for start in range(0, table.n_rows, _WRITE_ROWS):
        block = [labels[codes[start : start + _WRITE_ROWS]].tolist() for labels, codes in columns]
        handle.write("\r\n".join(map(delimiter.join, zip(*block))))
        handle.write("\r\n")


def _labels(column: Column, delimiter: str, alone: bool) -> tuple[np.ndarray, np.ndarray]:
    """(one quoted label per distinct value, each row's index into them).

    ``alone`` says the column is the table's only one.
    """
    if column.is_categorical:
        values, codes = column.categories, column.codes
    else:
        # Distinct bit patterns, so -0.0 and 0.0 keep their own text.
        # Iterating the array yields the same numpy scalars decode() does.
        bits = column.values.view(f"u{column.values.itemsize}")
        _, first, codes = np.unique(bits, return_index=True, return_inverse=True)
        values = column.values[first]
    special = (delimiter, '"', "\r", "\n")
    labels = np.empty(len(values), dtype=object)
    labels[:] = [_quote(_render(value), special, alone) for value in values]
    return labels, codes


def _quote(label: str, special: tuple[str, ...], alone: bool) -> str:
    """``label`` as a field of ``csv.writer``'s default dialect writes it."""
    if any(char in label for char in special):
        return '"' + label.replace('"', '""') + '"'
    if alone and not label:
        # The module quotes a row whose only field is empty.
        return '""'
    return label


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _render(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
