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
character and no CR is split into lines and then into cells with
``str.split``: plain string lists, one cell-count check per line, columns
taken by stride slicing. Anything else — quoted fields, and CRLF line ends
such as :func:`write_csv` itself emits — drops that text and is parsed by
the ``csv`` module streaming from the source again (a pipe, which cannot
rewind, is parsed from the text). Both paths yield the same cells, so the
same table.

Egress renders each category, or each distinct numeric value, once and
hands per-column label lists to ``csv.writer.writerows``, so quoting stays
the ``csv`` module's.
"""

from __future__ import annotations

import csv
import io
import os
from itertools import repeat
from typing import Sequence, TextIO

import numpy as np

from ..errors import SchemaError
from .table import Column, Table

__all__ = ["format_csv", "parse_csv", "read_csv", "write_csv"]

#: How :func:`parse_csv` errors name the bytes they reject.
_PAYLOAD = "'data'"


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
        values = by_name[name]
        if name in categorical:
            columns.append(Column.categorical(name, values))
            continue
        try:
            numbers = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
        except ValueError:
            if name in numeric:
                bad = next(v for v in values if not _is_number(v))
                raise SchemaError(f"column {name!r}: {bad!r} is not numeric") from None
            columns.append(Column.categorical(name, values))
        else:
            columns.append(Column.numeric(name, numbers))
    return Table(columns)


def _cells(
    handle: TextIO, source: str | os.PathLike, delimiter: str
) -> tuple[list[str], list[list[str]]]:
    """The stripped header and one list of stripped cells per column."""
    text = handle.read()
    if len(delimiter) != 1 or '"' in text or "\r" in text:
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
    width = len(header)
    counts = list(map(str.count, rows, repeat(delimiter)))
    if counts.count(width - 1) != len(counts):
        i = next(i for i, count in enumerate(counts) if count != width - 1)
        raise SchemaError(
            f"{source}: row {i + 2} has {counts[i] + 1} cells, header has {width}"
        )
    joined = delimiter.join(rows)
    del rows
    cells = joined.split(delimiter)
    del joined
    return header, [list(map(str.strip, cells[j::width])) for j in range(width)]


def _csv_cells(
    handle: TextIO, source: str | os.PathLike, delimiter: str
) -> tuple[list[str], list[list[str]]]:
    """:func:`_cells` through the ``csv`` module (quoted fields, CR line ends)."""
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = [name.strip() for name in next(reader)]
    except StopIteration:
        raise SchemaError(f"{source}: empty file") from None
    rows = [[cell.strip() for cell in row] for row in reader if row]
    if not rows:
        raise SchemaError(f"{source}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(
                f"{source}: row {i + 2} has {len(row)} cells, header has {len(header)}"
            )
    return header, [[row[j] for row in rows] for j in range(len(header))]


def _write(table: Table, handle: TextIO, delimiter: str) -> None:
    writer = csv.writer(handle, delimiter=delimiter)
    writer.writerow(table.column_names)
    writer.writerows(zip(*map(_labels, table)))


def _labels(column: Column) -> list[str]:
    """The column's rendered cells, each distinct value rendered once."""
    if column.is_categorical:
        values, codes = column.categories, column.codes
    else:
        # Distinct bit patterns, so -0.0 and 0.0 keep their own text.
        # Iterating the array yields the same numpy scalars decode() does.
        bits = column.values.view(f"u{column.values.itemsize}")
        _, first, codes = np.unique(bits, return_index=True, return_inverse=True)
        values = column.values[first]
    labels = np.empty(len(values), dtype=object)
    labels[:] = [_render(value) for value in values]
    return labels[codes].tolist()


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
