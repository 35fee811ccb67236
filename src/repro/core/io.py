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

Ingest reads the input as bytes, which must be UTF-8: anything else is a
:class:`~repro.errors.SchemaError` naming the source and the offset of the
first bad byte (``bytes.isascii``, and one decode only for non-ASCII
input). A leading byte-order mark is dropped. Text holding no quote
character and no CR, read with a delimiter that is one ASCII byte other
than LF, is tokenized over its bytes in numpy, so no cell becomes a Python
string before it is known to be distinct:

* **Scan.** One pass finds every delimiter and LF of the body (an LF is
  appended when the text lacks one). An LF right after an LF, or at the
  body's start, ends a blank line and drops out, as the ``csv`` module
  skips blank rows. The rows are ``width`` cells wide exactly when there
  are ``width * n`` separators and every ``width``-th one is an LF; a
  cell runs from one separator to the next.
* **Encode.** A cell's key is its first 8 bytes read as one little-endian
  ``uint64`` (an unaligned view over the zero-padded body) masked to its
  length; text holding a NUL byte adds that length, which masking cannot
  tell from padding. ``np.unique`` labels the keys. A longer cell whose
  label another cell shares then reads its next 8, 16, 32, ... bytes, one
  block a round, and takes a fresh label from (label, block label) through
  :func:`~repro.core.table.pack_code_columns`; a block's label comes from
  labelling its 8-byte chunks and then adjacent pairs of labels. So the
  work grows with the bytes of cells that share a prefix, not with the
  rows times the longest cell. Labels are exact (no hashing), and only
  one cell per label is decoded.

Quoted fields, CR or CRLF line ends (such as :func:`write_csv` itself
emits) and any other delimiter go through the ``csv`` module over the
same bytes. Both paths hand each column on as (row labels, distinct raw
cells), so one function types them: a categorical column strips each
distinct cell once and sorts the texts, and a numeric or sniffed column
calls ``float(cell.strip())`` once per distinct cell. Raw variants that
strip to the same text share its code.

Egress renders each category, or each distinct numeric value, once and
quotes it once by the ``csv`` module's default dialect: a label holding the
delimiter, a quote, CR or LF is wrapped in quotes with each quote doubled,
and a one-column table's empty label is written ``""``. The body is then
joined row by row with ``str.join``, :data:`_WRITE_ROWS` rows per write.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
from typing import Sequence, TextIO

import numpy as np

from ..errors import SchemaError
from .table import Column, Table, pack_code_columns

__all__ = ["format_csv", "parse_csv", "read_csv", "write_csv"]

#: How :func:`parse_csv` errors name the bytes they reject.
_PAYLOAD = "'data'"

#: Rows per write of a CSV body. Each block is joined into one string
#: before it is written, so this bounds that string, not the table.
_WRITE_ROWS = 16_384

_LF = ord("\n")

#: ``_MASKS[i]`` keeps the first ``i`` bytes of a little-endian word.
_MASKS = np.array([(1 << 8 * i) - 1 for i in range(9)], dtype=np.uint64)

#: One column as (each row's label, the raw cell of each label).
_Labeled = tuple[np.ndarray, list[str]]


def read_csv(
    path: str | os.PathLike,
    categorical: Sequence[str] = (),
    numeric: Sequence[str] = (),
    delimiter: str = ",",
) -> Table:
    """Load a CSV with a header row into a :class:`Table`.

    Columns named in ``categorical``/``numeric`` are typed accordingly;
    every other column is numeric if all its values parse as floats, else
    categorical. Values are stripped of surrounding whitespace. The file
    must be UTF-8; a leading byte-order mark, as spreadsheet "CSV UTF-8"
    exports write, is dropped.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    header, columns = _columns(data, path, delimiter)
    return _table(header, columns, categorical, numeric)


def parse_csv(
    data: bytes, categorical: Sequence[str] = (), numeric: Sequence[str] = ()
) -> Table:
    """:func:`read_csv` over in-memory, comma-separated bytes."""
    header, columns = _columns(data, _PAYLOAD, ",")
    return _table(header, columns, categorical, numeric)


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
    columns: list[_Labeled],
    categorical: Sequence[str],
    numeric: Sequence[str],
) -> Table:
    declared = set(categorical) | set(numeric)
    unknown = declared - set(header)
    if unknown:
        raise SchemaError(f"declared columns {sorted(unknown)} not in CSV header {header}")
    # A repeated name keeps its last column here; Table then rejects it.
    by_name = dict(zip(header, columns))
    return Table(
        [
            _column(name, *by_name[name], name in categorical, name in numeric)
            for name in header
        ]
    )


def _column(
    name: str, labels: np.ndarray, cells: list[str], categorical: bool, numeric: bool
) -> Column:
    """The typed column of rows ``labels`` over the distinct raw ``cells``."""
    if not categorical:
        try:
            values = np.array([float(cell.strip()) for cell in cells], dtype=np.float64)
        except ValueError:
            if numeric:
                ok = np.array([_is_number(cell.strip()) for cell in cells])
                row = np.flatnonzero(~ok[labels])[0]
                bad = cells[labels[row]].strip()
                raise SchemaError(f"column {name!r}: {bad!r} is not numeric") from None
        else:
            return Column.numeric(name, values[labels])
    texts = [cell.strip() for cell in cells]
    categories = sorted(set(texts))
    code = {text: i for i, text in enumerate(categories)}
    remap = np.fromiter(map(code.__getitem__, texts), dtype=np.int32, count=len(texts))
    return Column.from_codes(name, remap[labels], categories)


def _columns(
    data: bytes, source: str | os.PathLike, delimiter: str
) -> tuple[list[str], list[_Labeled]]:
    """The stripped header and each column of ``data`` as (labels, distinct cells)."""
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"{source}: not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
            ) from None
    if (
        len(delimiter) != 1
        or not delimiter.isascii()
        or delimiter == "\n"
        or b'"' in data
        or b"\r" in data
    ):
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as handle:
            return _csv_cells(handle, source, delimiter)
    return _byte_cells(data, source, delimiter)


def _byte_cells(
    data: bytes, source: str | os.PathLike, delimiter: str
) -> tuple[list[str], list[_Labeled]]:
    """:func:`_columns` of unquoted, CR-free text, tokenized over its bytes."""
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if len(data) == start:
        raise SchemaError(f"{source}: empty file")
    end = data.find(b"\n", start)
    if end < 0:
        end = len(data)
    line = data[start:end].decode()
    # csv.reader reads a blank line as an empty row.
    header = [name.strip() for name in line.split(delimiter)] if line else []
    width = len(header)
    size = len(data) - end - 1
    if size <= 0:
        raise SchemaError(f"{source}: no data rows")
    # Room for an appended LF and for 8 bytes read at any cell start.
    text = np.zeros(size + 9, dtype=np.uint8)
    text[:size] = np.frombuffer(data, dtype=np.uint8, offset=end + 1)
    if text[size - 1] != _LF:
        text[size] = _LF
        size += 1
    body = text[:size]
    # Each intermediate is dropped as soon as the next exists: these arrays,
    # not the table, set ingest's peak memory.
    is_sep = body == ord(delimiter)
    is_sep |= body == _LF
    ends = np.flatnonzero(is_sep)
    del is_sep
    is_lf = body[ends] == _LF
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # An empty cell ended by an LF after an LF (or at the body's start) is
    # a blank line, which csv.reader skips.
    blank = is_lf & (starts == ends)
    blank[1:] &= is_lf[:-1]
    if blank.any():
        keep = ~blank
        starts, ends, is_lf = starts[keep], ends[keep], is_lf[keep]
        del keep
    del blank
    n = int(np.count_nonzero(is_lf))
    if not n:
        raise SchemaError(f"{source}: no data rows")
    if ends.size != width * n or not is_lf[width - 1 :: width].all():
        counts = np.diff(np.flatnonzero(is_lf), prepend=-1)
        i = int(np.flatnonzero(counts != width)[0])
        raise SchemaError(f"{source}: row {i + 2} has {counts[i]} cells, header has {width}")
    del is_lf
    starts, ends = starts.reshape(n, width), ends.reshape(n, width)
    words = np.ndarray((text.size - 7,), dtype="<u8", buffer=text, strides=(1,))
    # Without a NUL byte, the masked words of a cell already imply its length.
    nul = b"\0" in data
    columns = [_label_bytes(text, words, starts[:, j], ends[:, j], nul) for j in range(width)]
    return header, columns


def _label_bytes(
    text: np.ndarray, words: np.ndarray, starts: np.ndarray, ends: np.ndarray, nul: bool
) -> _Labeled:
    """One column's cells ``text[starts:ends]`` as (labels, distinct cells).

    Cells are labelled by their first 8 bytes. A cell that is longer and
    shares its label reads on, each round doubling the prefix it has read
    and taking a fresh label, so the work grows with the bytes of cells
    that share a prefix, and the rounds with the logarithm of the longest
    shared prefix.
    """
    lengths = ends - starts
    labels, count = _label_words(words, starts, np.minimum(lengths, 8), nul)
    live = np.flatnonzero(lengths > 8)
    del lengths
    if live.size:
        live = live[np.bincount(labels)[labels[live]] > 1]
    # The labels of the live cells lie in [base, count).
    base, offset = 0, 8
    while live.size:
        first = starts[live] + offset
        last = np.minimum(ends[live], first + offset)
        block, bound = _label_ranges(words, first, last, nul)
        del first
        packed = pack_code_columns([labels[live] - base, block], [count - base, bound])
        distinct, block = np.unique(packed, return_inverse=True)
        labels[live] = count + block
        base, count = count, count + distinct.size
        # A cell reads on while it is longer and its fresh label is shared.
        shared = np.bincount(block)[block] > 1
        live = live[shared & (ends[live] > last)]
        offset *= 2
    # Any row of a label holds its cell's bytes.
    rows = np.full(count, -1, dtype=np.intp)
    rows[labels] = np.arange(labels.size)
    if base:
        # Close the gaps of labels whose cells all took fresh ones.
        used = rows >= 0
        rows = rows[used]
        labels = (np.cumsum(used) - 1)[labels]
    view = memoryview(text)
    cells = [str(view[a:b], "utf-8") for a, b in zip(starts[rows].tolist(), ends[rows].tolist())]
    return labels, cells


def _label_ranges(
    words: np.ndarray, starts: np.ndarray, ends: np.ndarray, nul: bool
) -> tuple[np.ndarray, int]:
    """Labels of the byte strings ``[starts, ends)``, and a bound on them.

    Two strings share a label exactly when they are equal. Each string is a
    run of 8-byte chunks, and one ``np.unique`` labels every chunk; each
    round then halves the runs longer than one label by labelling adjacent
    pairs.
    """
    lengths = ends - starts
    if lengths.max() <= 8:
        return _label_words(words, starts, lengths, nul)
    # Chunk i of a string holds its bytes [8i, 8i + 8); an empty one has one.
    runs = np.maximum((lengths + 7) >> 3, 1)
    firsts = np.cumsum(runs) - runs
    owner = np.repeat(np.arange(runs.size), runs)
    offsets = (np.arange(owner.size) - firsts[owner]) << 3
    sizes = np.minimum(lengths[owner] - offsets, 8)
    offsets += starts[owner]
    del owner, lengths
    chunks, count = _label_words(words, offsets, sizes, nul)
    del offsets, sizes
    # A string whose run is down to one label takes it, offset by ``base``
    # so that strings finished in different rounds never share a label.
    labels = np.empty(runs.size, dtype=np.int64)
    pending = np.arange(runs.size)
    base = 0
    while True:
        done = runs == 1
        labels[pending[done]] = base + chunks[firsts[done]]
        base += count
        if done.all():
            return labels, base
        left = ~done
        chunks = chunks[np.repeat(left, runs)]
        pending, runs = pending[left], runs[left]
        # Close each odd run with ``count``, which no label takes, and pair.
        chunks = np.insert(chunks, np.cumsum(runs)[runs % 2 == 1], count)
        runs = (runs + 1) >> 1
        firsts = np.cumsum(runs) - runs
        pairs = chunks.reshape(-1, 2)
        packed = pack_code_columns([pairs[:, 0], pairs[:, 1]], [count, count + 1])
        distinct, chunks = np.unique(packed, return_inverse=True)
        count = distinct.size


def _label_words(
    words: np.ndarray, starts: np.ndarray, sizes: np.ndarray, nul: bool
) -> tuple[np.ndarray, int]:
    """:func:`_label_ranges` of strings of at most 8 bytes, ``sizes`` long."""
    distinct, labels = np.unique(words[starts] & _MASKS[sizes], return_inverse=True)
    if nul:
        # A masked word cannot tell a trailing NUL from padding; its size can.
        packed = pack_code_columns([labels, sizes], [distinct.size, 9])
        distinct, labels = np.unique(packed, return_inverse=True)
    return labels, distinct.size


def _csv_cells(
    handle: TextIO, source: str | os.PathLike, delimiter: str
) -> tuple[list[str], list[_Labeled]]:
    """:func:`_columns` through the ``csv`` module (quoted fields, CR line ends)."""
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
    return header, [_label_cells([row[j] for row in rows]) for j in range(len(header))]


def _label_cells(cells: list[str]) -> _Labeled:
    """``cells`` as (each cell's label, the distinct cells in first-seen order)."""
    index = {cell: i for i, cell in enumerate(dict.fromkeys(cells))}
    labels = np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))
    return labels, list(index)


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
