"""Tests for CSV I/O and the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import io as rio
from repro.core.io import format_csv, parse_csv, read_csv, write_csv
from repro.core.table import Column, Table, mixed_radix_fits
from repro.cli import main
from repro.errors import SchemaError


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "zipcode,job,age,disease\n"
        "13053,engineer,29,flu\n"
        "13068,teacher,31,hiv\n"
        "13053,engineer,35,ulcer\n"
        "13068,nurse,40,flu\n"
        "14850,teacher,22,flu\n"
        "14850,nurse,24,cancer\n"
        "14853,engineer,28,hiv\n"
        "14853,teacher,33,ulcer\n"
    )
    return path


class TestReadCSV:
    def test_sniffs_types(self, csv_path):
        table = read_csv(csv_path)
        assert table.column("age").is_categorical is False
        assert table.column("job").is_categorical is True
        assert table.n_rows == 8

    def test_explicit_types_override(self, csv_path):
        table = read_csv(csv_path, categorical=["zipcode"])
        assert table.column("zipcode").is_categorical

    def test_declared_missing_column_raises(self, csv_path):
        with pytest.raises(SchemaError, match="not in CSV header"):
            read_csv(csv_path, categorical=["ghost"])

    def test_non_numeric_declared_numeric_raises(self, csv_path):
        with pytest.raises(SchemaError, match="is not numeric"):
            read_csv(csv_path, numeric=["job"])

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_csv(path)

    def test_header_only_raises(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(SchemaError, match="no data rows"):
            read_csv(path)

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(SchemaError, match="row 3"):
            read_csv(path)


class TestWriteCSV:
    def test_roundtrip(self, tmp_path):
        table = Table(
            [
                Column.categorical("c", ["x", "y"]),
                Column.numeric("n", [1.5, 2.0]),
            ]
        )
        path = tmp_path / "out.csv"
        write_csv(table, path)
        back = read_csv(path, categorical=["c"], numeric=["n"])
        assert back.column("c").decode() == ["x", "y"]
        assert back.values("n").tolist() == [1.5, 2.0]

    def test_integral_floats_written_as_ints(self, tmp_path):
        table = Table([Column.numeric("n", [3.0])])
        path = tmp_path / "out.csv"
        write_csv(table, path)
        assert path.read_text().splitlines()[1] == "3"


# -- reference: the csv-module reader and per-cell writer ----------------------


def reference_read_csv(path, categorical=(), numeric=(), delimiter=","):
    """read_csv as one csv.reader list per row, then per-cell sniffing."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = [[cell.strip() for cell in row] for row in reader if row]
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: row {i + 2} has {len(row)} cells, header has {len(header)}"
            )
    columns = []
    by_name = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    unknown = (set(categorical) | set(numeric)) - set(header)
    if unknown:
        raise SchemaError(f"declared columns {sorted(unknown)} not in CSV header {header}")
    for name in header:
        values = by_name[name]
        if name in categorical:
            columns.append(_reference_categorical(name, values))
        elif name in numeric:
            columns.append(Column.numeric(name, [_reference_number(name, v) for v in values]))
        elif all(_reference_is_number(v) for v in values):
            columns.append(Column.numeric(name, [float(v) for v in values]))
        else:
            columns.append(_reference_categorical(name, values))
    return Table(columns)


def reference_write_csv(table, path, delimiter=","):
    """write_csv as decode() plus one rendered list per row."""
    decoded = {name: table.column(name).decode() for name in table.column_names}
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(table.column_names)
        for i in range(table.n_rows):
            writer.writerow([_reference_render(decoded[name][i]) for name in table.column_names])


def _reference_categorical(name, values):
    categories = sorted(set(values), key=str)
    index = {value: code for code, value in enumerate(categories)}
    codes = np.array([index[value] for value in values], dtype=np.int32)
    return Column.from_codes(name, codes, categories)


def _reference_is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def _reference_number(name, text):
    try:
        return float(text)
    except ValueError:
        raise SchemaError(f"column {name!r}: {text!r} is not numeric") from None


def _reference_render(value):
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def assert_same_table(got, expected):
    """Same names, column kinds, category order and values, bit for bit."""
    assert got.column_names == expected.column_names
    for mine, theirs in zip(got, expected):
        assert mine.is_categorical == theirs.is_categorical, mine.name
        if theirs.is_categorical:
            assert mine.categories == theirs.categories, mine.name
            assert [type(c) for c in mine.categories] == [type(c) for c in theirs.categories]
            assert mine.codes.dtype == theirs.codes.dtype
            assert np.array_equal(mine.codes, theirs.codes), mine.name
        else:
            assert mine.values.dtype == theirs.values.dtype, mine.name
            assert mine.values.tobytes() == theirs.values.tobytes(), mine.name


#: (text, read_csv keyword arguments). Cases without a quote or CR take the
#: byte path; TestReferenceParity also reruns them with CRLF line ends,
#: which sends the same cells through the csv-module parse.
READ_CASES = {
    "plain": ("zip,job,age\n02134,nurse,31\n00501,clerk,44\n", {}),
    "zipcodes-declared": (
        "zip,job,age\n02134,nurse,31\n00501,clerk,44\n02134,clerk,50\n",
        {"categorical": ["zip"], "numeric": ["age"]},
    ),
    "quoted": (
        'name,note,n\n"Smith, J","said ""hi""",1\n"multi\nline",plain,2\n',
        {},
    ),
    "quoted-declared": (
        'a,b\n"x,1","2"\n"y\ny","3"\n',
        {"categorical": ["a"], "numeric": ["b"]},
    ),
    "crlf": ("a,b\r\n1,x\r\n\r\n2,y\r\n", {}),
    "blank-lines-and-whitespace": (
        " a , b \n 1 , x \n\n\n2,\ty\t\n  3  , z\n\n", {}
    ),
    "numeric-sniffing": (
        "e,nan,inf,negzero,padded,underscore,mixed\n"
        "1e3,nan,inf,-0, 7 ,1_000,1\n"
        "2E-2,NaN,-Infinity,0, 8,2_5,x\n",
        {},
    ),
    "declared-numeric-nan": ("a,b\nnan,1\n-0,2\n", {"numeric": ["a"], "categorical": ["b"]}),
    "all-declared-categorical": (
        "a,b\n1.0,1\n1,01\n", {"categorical": ["a", "b"]}
    ),
    "tab-delimited": ("a\tb\n1\tx\n2\ty\n", {"delimiter": "\t"}),
    "no-trailing-newline": ("a,b\n1,x\n2,y", {}),
    "one-column": ("a\nx\n\ny\n", {}),
    "empty-cells": ("a,b,c\n,,\n1,,z\n", {}),
    "non-ascii": ("städt,wert\nmünchen,1\nköln,2\n", {}),
    "ascii-control-blanks": ("a,b\n\x0b1\x0c,\x1cx\x1f\n2,\x1dy\x1e\n", {}),
    # float() rejects these separators, which str.strip removes.
    "numeric-control-blanks": ("a,b\n\x1c1\x1f,\x1d2\x1e\n3,4\n", {"numeric": ["b"]}),
    "unicode-blanks": ("a,b\n\u00a01\u2003,\x85x\u3000\n2,y\n", {}),
    # One value padded four ways plus a blank cell: "a" declared, "b" sniffed.
    "padded-duplicates": (
        "a,b\n x, x\nx ,x \n\tx,\tx\nx,x\n  ,  \n", {"categorical": ["a"]}
    ),
    # Cells of 7, 8, 9, 16 and 17 bytes sharing their first 8 bytes (or 7),
    # text in "w" and sniffed numbers in "n".
    "shared-8-byte-prefix": (
        "w,n\n"
        "abcdefg,1234567\n"
        "abcdefgh,12345678\n"
        "abcdefghi,123456789\n"
        "abcdefghabcdefgh,1234567812345678\n"
        "abcdefghabcdefghi,12345678123456789\n"
        "abcdefgh,12345678\n",
        {},
    ),
    # Masked words cannot tell trailing NULs from padding; the length can.
    "nul-suffixes": (
        "a,b\na,\na\x00,\x00\na\x00\x00,\x00\x00\na,\n\x00,x\n", {}
    ),
    # Pairs of distinct cells that share their first 8, 16 or 40 bytes with
    # each other and with no other cell.
    "prefix-pairs": (
        "w,n\n"
        "12345678a,1\n12345678b,2\n"
        "abcdefghijklmnop1,3\nabcdefghijklmnop2,4\n"
        f"{'q' * 40}x,5\n{'q' * 40}y,6\n",
        {},
    ),
    # One prefix cut to lengths around the ends of the 8-, 16-, 32- and
    # 64-byte blocks a shared cell reads, and blocks of 3 and 5 chunks, each
    # bare, with a NUL and with a letter after it, all twice.
    "long-shared-prefixes": (
        "w\n"
        + "".join(
            f"{('abcdefgh' * 13)[:size]}{tail}\n"
            for size in (7, 8, 15, 16, 17, 24, 31, 32, 33, 56, 57, 63, 64, 65, 100)
            for tail in ("", "\x00", "z")
        )
        * 2,
        {},
    ),
    # Two- to four-byte characters over the boundary between two 8-byte chunks.
    "utf8-straddling-byte-8": (
        "a,b\n1234567ü,1\n1234567ý,2\n123456€x,3\n12345🙂,4\n1234567ü,5\n", {}
    ),
}

#: Labels csv.writer quotes (or leaves alone) one way or another: edge
#: spaces, tab, an ASCII separator that str.strip removes, the other test
#: delimiter, non-ASCII, a lone quote, a lone CR and a lone delimiter.
HOSTILE_LABELS = [" x ", "a\tb", "\x1c", ";", "ü", '"', "\r", ","]
HOSTILE_ALPHABET = "a,\"\r\n \t\x1cü;"

#: Unquoted, CR-free cell text: blanks str.strip removes (tab, \x1c, \xa0),
#: a NUL, a two-byte letter, and what numbers are made of.
CELL_ALPHABET = " \t\x1c\x00\xa0ü0123456789.e-abxyz"
NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e5", "-0", ".5", "1_0", "0x1"]),
)


@st.composite
def unquoted_csv(draw):
    """(text, read_csv keyword arguments) of unquoted, CR-free CSV text.

    Mostly rows of cells 0 to 40 bytes long, some of them numbers padded with
    blanks, with blank lines and the odd ragged row; else any text over the
    cell alphabet, the delimiter and LF.
    """
    if draw(st.booleans()):
        delimiter = draw(st.sampled_from([",", ";", "\t"]))
        alphabet = CELL_ALPHABET.replace(delimiter, "")
        pad = st.text(alphabet=" \x1c\xa0", max_size=2)
        cells = {
            "text": st.text(alphabet=alphabet, max_size=40).map(
                lambda s: s.encode()[:40].decode(errors="ignore")
            ),
            "number": st.tuples(pad, NUMBERS, pad).map("".join),
        }
        width = draw(st.integers(1, 4))
        kinds = [draw(st.sampled_from(sorted(cells))) for _ in range(width)]
        names = [f"c{j}" for j in range(width)]
        rows = [
            [draw(cells[kind]) for kind in kinds]
            for _ in range(draw(st.integers(1, 6)))
        ]
        if draw(st.integers(0, 9)) == 0:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if draw(st.booleans()):
                row.pop()
            else:
                row.append("x")
        lines = [delimiter.join(names), *map(delimiter.join, rows)]
        for at in draw(st.lists(st.integers(1, len(lines)), max_size=3)):
            lines.insert(at, "")
        text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    else:
        delimiter = ","
        text = draw(st.text(alphabet=CELL_ALPHABET + ",\n", max_size=120))
        names = [name.strip() for name in text.split("\n")[0].split(",")]
    kwargs = {"categorical": [], "numeric": []}
    for name in dict.fromkeys(names):
        kind = draw(st.sampled_from(["sniffed", "categorical", "numeric"]))
        if kind != "sniffed":
            kwargs[kind].append(name)
    if delimiter != ",":
        kwargs["delimiter"] = delimiter
    return text, kwargs


#: Inputs both readers must reject with the same SchemaError message.
BAD_CASES = {
    "ragged-short": ("a,b\n1,2\n3\n", {}),
    "ragged-after-blank-lines": ("a,b\n\n1,2\n\n\n3,4,5\n", {}),
    "ragged-quoted": ('a,b\n"1,2"\n', {}),
    # As many cells in all as two full rows hold.
    "ragged-balanced": ("a,b\n1\n2,3,4\n", {}),
    "blank-header": ("\na,b\n1,2\n", {}),
    "empty": ("", {}),
    "newline-only": ("\n", {}),
    "header-only": ("a,b\n", {}),
    "header-and-blank-lines": ("a,b\n\n\n", {}),
    "declared-missing": ("a,b\n1,2\n", {"categorical": ["ghost"]}),
    "declared-numeric-text": ("a,b\n1,x\n2,y\n", {"numeric": ["b"]}),
}


class TestReferenceParity:
    """read_csv/write_csv equal the csv-module reference, table and bytes."""

    @staticmethod
    def _write(tmp_path, text, name="in.csv"):
        path = tmp_path / name
        path.write_bytes(text.encode())
        return path

    @staticmethod
    def _spy_csv_path(monkeypatch):
        calls = []
        original = rio._csv_cells

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rio, "_csv_cells", spy)
        return calls

    @pytest.mark.parametrize("case", sorted(READ_CASES))
    def test_read_matches_reference(self, case, tmp_path, monkeypatch):
        text, kwargs = READ_CASES[case]
        csv_calls = self._spy_csv_path(monkeypatch)
        variants = [text]
        if '"' not in text and "\r" not in text:
            variants.append(text.replace("\n", "\r\n"))
        for index, variant in enumerate(variants):
            path = self._write(tmp_path, variant, f"in{index}.csv")
            expected = reference_read_csv(path, **kwargs)
            before = len(csv_calls)
            assert_same_table(read_csv(path, **kwargs), expected)
            if "delimiter" not in kwargs:
                assert_same_table(parse_csv(path.read_bytes(), **kwargs), expected)
            # Only quoted or CR text goes through the csv module.
            assert (len(csv_calls) > before) == ('"' in variant or "\r" in variant)

    @pytest.mark.parametrize("case", sorted(BAD_CASES))
    def test_errors_match_reference(self, case, tmp_path):
        text, kwargs = BAD_CASES[case]
        variants = [text]
        if text and '"' not in text and "\r" not in text:
            variants.append(text.replace("\n", "\r\n"))
        for index, variant in enumerate(variants):
            path = self._write(tmp_path, variant, f"bad{index}.csv")
            with pytest.raises(SchemaError) as expected:
                reference_read_csv(path, **kwargs)
            with pytest.raises(SchemaError) as got:
                read_csv(path, **kwargs)
            assert str(got.value) == str(expected.value)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("case", ["plain", "quoted", "crlf"])
    def test_read_from_pipe_matches_reference(self, case, tmp_path):
        # A pipe cannot rewind: both paths parse the bytes read once.
        text, kwargs = READ_CASES[case]
        expected = reference_read_csv(self._write(tmp_path, text), **kwargs)
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as writer:
            writer.write(text.encode())
        try:
            assert_same_table(read_csv(f"/dev/fd/{read_end}", **kwargs), expected)
        finally:
            os.close(read_end)

    def test_lf_delimiter_matches_reference(self, tmp_path):
        # Each line is one cell. The byte path ends rows at every LF, so an
        # LF delimiter takes the csv path.
        path = self._write(tmp_path, "a,b\nx,1\n\n y \n")
        expected = reference_read_csv(path, delimiter="\n")
        assert_same_table(read_csv(path, delimiter="\n"), expected)

    def test_non_ascii_delimiter_matches_reference(self, tmp_path, monkeypatch):
        # One character but two bytes, so the text takes the csv path.
        csv_calls = self._spy_csv_path(monkeypatch)
        path = self._write(tmp_path, "a§b\nx§1\n\n ü §2\nx§3\n")
        expected = reference_read_csv(path, delimiter="§")
        assert_same_table(read_csv(path, delimiter="§"), expected)
        assert len(csv_calls) == 1

    def test_wide_random_cells_match_reference(self, tmp_path):
        # 40-byte cells, a third of them repeated: five 8-byte chunks whose
        # distinct counts multiply past int64, so no one mixed-radix packing
        # of a cell's chunk labels could label the column.
        rng = np.random.default_rng(7)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        cells = ["".join(word) for word in letters[rng.integers(0, 26, (10_000, 40))]]
        cells[1::3] = cells[: len(cells[1::3])]
        chunks = [len({cell[i : i + 8] for cell in cells}) for i in range(0, 40, 8)]
        assert not mixed_radix_fits(chunks)
        text = "id,n\n" + "".join(f"{cell},{i % 7}\n" for i, cell in enumerate(cells))
        path = self._write(tmp_path, text)
        expected = reference_read_csv(path)
        assert_same_table(read_csv(path), expected)
        assert_same_table(parse_csv(path.read_bytes()), expected)

    def test_long_cells_cost_their_bytes(self, tmp_path):
        # 20,000 short rows and three 16 KB cells, two equal and one that
        # differs in its last byte. Ingest memory must follow the input's
        # bytes, not the rows times the longest cell (hundreds of MiB).
        rng = np.random.default_rng(3)
        cell = "".join(rng.choice(list("abc"), 16_384))
        rows = [f"r{i % 97},{i % 5}" for i in range(20_000)]
        rows[100], rows[9_000], rows[19_000] = cell, cell[:-1] + "d", cell
        rows = [row if "," in row else f"{row},1" for row in rows]
        data = ("a,b\n" + "\n".join(rows) + "\n").encode()
        path = tmp_path / "long.csv"
        path.write_bytes(data)
        expected = reference_read_csv(path)
        for reader, arg in [(read_csv, path), (parse_csv, data)]:
            tracemalloc.start()
            try:
                got = reader(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, f"peak {peak / 2**20:.0f} MiB"
            assert_same_table(got, expected)

    @pytest.mark.parametrize(
        "data, offset",
        [
            (b"a,b\n1,\xff\n", 6),
            (b'a,b\n"1",x\xe9\n', 9),
            (b"a,b\r\n1,caf\xc3\n", 10),
            (b"\xef\xbb\xbfa,b\n1,\xed\xa0\x80\n", 9),
        ],
        ids=["plain", "quoted", "crlf", "surrogate-after-bom"],
    )
    def test_input_that_is_not_utf8_is_a_schema_error(self, tmp_path, data, offset):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        byte = f"0x{data[offset]:02x}"
        with pytest.raises(SchemaError) as got:
            read_csv(path)
        assert str(got.value) == f"{path}: not UTF-8: byte {byte} at offset {offset}"
        with pytest.raises(SchemaError) as got:
            parse_csv(data)
        assert str(got.value) == f"'data': not UTF-8: byte {byte} at offset {offset}"

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=unquoted_csv())
    def test_unquoted_text_matches_reference(self, tmp_path_factory, case):
        # Differential property of the byte path: CI runs it with
        # --hypothesis-profile ci (10,000 derandomized examples).
        text, kwargs = case
        path = tmp_path_factory.getbasetemp() / "unquoted.csv"
        path.write_bytes(text.encode())
        readers = [(read_csv, str(path), path)]
        if kwargs.get("delimiter", ",") == ",":
            readers.append((parse_csv, "'data'", path.read_bytes()))
        try:
            expected = reference_read_csv(path, **kwargs)
        except SchemaError as error:
            for reader, source, arg in readers:
                with pytest.raises(SchemaError) as got:
                    reader(arg, **kwargs)
                assert str(got.value) == str(error).replace(str(path), source)
        else:
            for reader, _, arg in readers:
                assert_same_table(reader(arg, **kwargs), expected)

    def test_ragged_row_number_counts_non_blank_rows(self, tmp_path):
        path = self._write(tmp_path, "a,b\n\n1,2\n\n3\n")
        with pytest.raises(SchemaError, match=r"row 3 has 1 cells, header has 2"):
            read_csv(path)

    def test_sniffed_numbers(self, tmp_path):
        text, kwargs = READ_CASES["numeric-sniffing"]
        table = read_csv(self._write(tmp_path, text), **kwargs)
        assert table.values("e").tolist() == [1000.0, 0.02]
        assert np.isnan(table.values("nan")).all()
        assert table.values("inf").tolist() == [np.inf, -np.inf]
        assert np.signbit(table.values("negzero")).tolist() == [True, False]
        assert table.values("padded").tolist() == [7.0, 8.0]
        assert table.values("underscore").tolist() == [1000.0, 25.0]
        assert table.column("mixed").is_categorical

    def test_leading_zero_zipcodes_stay_categorical(self, tmp_path):
        text, kwargs = READ_CASES["zipcodes-declared"]
        table = read_csv(self._write(tmp_path, text), **kwargs)
        assert table.column("zip").categories == ("00501", "02134")
        assert table.column("zip").decode() == ["02134", "00501", "02134"]

    @pytest.mark.parametrize("case", sorted(READ_CASES))
    def test_roundtrip_bytes_match_reference(self, case, tmp_path):
        text, kwargs = READ_CASES[case]
        table = read_csv(self._write(tmp_path, text), **kwargs)
        delimiter = kwargs.get("delimiter", ",")
        reference_write_csv(table, tmp_path / "ref.csv", delimiter)
        write_csv(table, tmp_path / "out.csv", delimiter)
        expected = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "out.csv").read_bytes() == expected
        if delimiter == ",":
            assert format_csv(table) == expected

    @pytest.mark.parametrize(
        "column",
        [
            Column.categorical("floats", [1.0, 2.5, 1.0, -0.0]),
            Column.categorical("ints", [3, 1, 2, 3]),
            Column.categorical("tuples", [(1, 2), (3, 4), (1, 2), (5, "x")]),
            Column.categorical("mixed", ["a,b", 'say "hi"', "two\nlines", ""]),
            Column.numeric("int64", np.array([3, -1, 0, 3], dtype=np.int64)),
            Column.numeric("float64", [1.0, 2.5, float("nan"), -0.0]),
            Column.numeric("float32", np.array([1.0, 2.5, 3.0, -0.0], dtype=np.float32)),
            Column.numeric("float32-zeros", np.array([0.0, -0.0, 0.0, 1.0], dtype=np.float32)),
            Column.numeric("float64-zeros", [0.0, -0.0, 0.0, 1.0]),
            Column.numeric("large", [1e20, 1e-7, 123456789.0, float("inf")]),
            Column.categorical("hostile", HOSTILE_LABELS),
        ],
        ids=lambda column: column.name,
    )
    def test_write_matches_reference(self, column, tmp_path):
        tags = (["p", "q", "p", "r"] * 2)[: len(column)]
        table = Table([column, Column.categorical("tag", tags)])
        for delimiter in (",", "\t", ";"):
            reference_write_csv(table, tmp_path / "ref.csv", delimiter)
            write_csv(table, tmp_path / "out.csv", delimiter)
            expected = (tmp_path / "ref.csv").read_bytes()
            assert (tmp_path / "out.csv").read_bytes() == expected, repr(delimiter)
            if delimiter == ",":
                assert format_csv(table) == expected

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.lists(st.text(alphabet=HOSTILE_ALPHABET, max_size=3), min_size=1, max_size=4),
            min_size=1,
            max_size=2,
        )
    )
    def test_format_matches_reference_on_hostile_labels(self, columns):
        rows = min(map(len, columns))
        table = Table(
            [Column.categorical(f"c{j}", labels[:rows]) for j, labels in enumerate(columns)]
        )
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(table.column_names)
        writer.writerows(zip(*(column.decode() for column in table)))
        assert format_csv(table) == buffer.getvalue().encode()

    def test_one_column_empty_string_is_quoted(self, tmp_path):
        table = Table([Column.categorical("a", ["", "x", ""])])
        reference_write_csv(table, tmp_path / "ref.csv")
        write_csv(table, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == b'a\r\n""\r\nx\r\n""\r\n'
        assert (tmp_path / "ref.csv").read_bytes() == (tmp_path / "out.csv").read_bytes()
        back = read_csv(tmp_path / "out.csv", categorical=["a"])
        assert back.column("a").decode() == ["", "x", ""]


class TestCLI:
    def test_end_to_end(self, csv_path, tmp_path, capsys):
        out = tmp_path / "anon.csv"
        rc = main(
            [
                str(csv_path), str(out),
                "--qi", "zipcode", "--qi", "job", "--numeric-qi", "age",
                "--sensitive", "disease", "--k", "2", "--report",
            ]
        )
        assert rc == 0
        published = read_csv(out, categorical=["zipcode", "job", "disease", "age"])
        assert published.n_rows == 8
        # k=2: every (zipcode, job, age) signature appears at least twice.
        groups = published.group_rows(["zipcode", "job", "age"])
        assert min(g.size for g in groups) >= 2
        report = json.loads(capsys.readouterr().err)
        assert report["summary"]["min_class_size"] >= 2
        assert 0 <= report["gcp"] <= 1

    def test_zipcode_prefix_hierarchy_applied(self, csv_path, tmp_path):
        out = tmp_path / "anon.csv"
        main(
            [
                str(csv_path), str(out),
                "--qi", "zipcode", "--numeric-qi", "age", "--k", "4",
                "--algorithm", "datafly",
            ]
        )
        published = read_csv(out, categorical=["zipcode"])
        values = set(published.column("zipcode").decode())
        # Datafly at k=4 on 8 rows must coarsen zipcodes to masked prefixes.
        assert any("*" in v for v in values)

    def test_requires_qi(self, csv_path, tmp_path):
        with pytest.raises(SystemExit):
            main([str(csv_path), str(tmp_path / "x.csv")])

    def test_l_requires_sensitive(self, csv_path, tmp_path):
        with pytest.raises(SystemExit):
            main([str(csv_path), str(tmp_path / "x.csv"), "--qi", "job", "--l", "2"])

    def test_infeasible_returns_error_code(self, csv_path, tmp_path, capsys):
        rc = main(
            [
                str(csv_path), str(tmp_path / "x.csv"),
                "--qi", "job", "--k", "100",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_numeric_qi_exits_2(self, csv_path, tmp_path, capsys, bad):
        src = tmp_path / "bad.csv"
        src.write_text(csv_path.read_text().replace("13068,teacher,31,", f"13068,teacher,{bad},"))
        out = tmp_path / "x.csv"
        rc = main(
            [
                str(src), str(out), "--qi", "zipcode", "--numeric-qi", "age",
                "--k", "2", "--algorithm", "flash",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"numeric QI 'age' holds the non-finite value {bad} in row 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_numeric_qi_prints_only_the_error(self, csv_path, tmp_path, bad):
        # A fresh interpreter, so numpy warnings reach stderr as a user sees them.
        src = tmp_path / "bad.csv"
        src.write_text(csv_path.read_text().replace("13068,teacher,31,", f"13068,teacher,{bad},"))
        out = tmp_path / "x.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", str(src), str(out), "--qi", "zipcode",
                "--numeric-qi", "age", "--k", "2", "--algorithm", "flash",
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            f"error: numeric QI 'age' holds the non-finite value {bad} in row 1 (0-based)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_byte_order_mark_is_dropped(self, csv_path, tmp_path, quoted):
        # Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark.
        text = csv_path.read_text()
        if quoted:
            text = text.replace("engineer", '"engineer, senior"')
        plain = tmp_path / "plain.csv"
        plain.write_bytes(text.encode())
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert_same_table(parse_csv(marked.read_bytes()), parse_csv(plain.read_bytes()))
        assert_same_table(read_csv(marked), read_csv(plain))
        args = [
            "--qi", "zipcode", "--qi", "job", "--numeric-qi", "age",
            "--sensitive", "disease", "--k", "2",
        ]
        assert main([str(plain), str(tmp_path / "plain-out.csv"), *args]) == 0
        assert main([str(marked), str(tmp_path / "marked-out.csv"), *args]) == 0
        released = (tmp_path / "plain-out.csv").read_bytes()
        assert (tmp_path / "marked-out.csv").read_bytes() == released

    def test_input_that_is_not_utf8_exits_2(self, csv_path, tmp_path, capsys):
        # A Latin-1 export: one byte 0xe9 where UTF-8 needs two.
        data = csv_path.read_bytes()
        src = tmp_path / "latin1.csv"
        src.write_bytes(data.replace(b"nurse", b"nurs\xe9", 1))
        out = tmp_path / "x.csv"
        assert main([str(src), str(out), "--qi", "job", "--k", "2"]) == 2
        offset = data.index(b"nurse") + 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: {src}: not UTF-8: byte 0xe9 at offset {offset}"
        ]
        assert not out.exists()

    def test_anatomy_default_report_exits_0(self, csv_path, tmp_path, capsys):
        # The default report adds homogeneity, whose sensitive column
        # Anatomy publishes only in its ST.
        out = tmp_path / "anon.csv"
        rc = main(
            [
                str(csv_path), str(out),
                "--qi", "zipcode", "--qi", "job", "--numeric-qi", "age",
                "--sensitive", "disease", "--l", "2", "--algorithm", "anatomy", "--report",
            ]
        )
        assert rc == 0
        published = read_csv(out)
        assert published.column_names == ["zipcode", "job", "age", "group_id"]
        report = json.loads(capsys.readouterr().err)
        assert report["homogeneity"]["exposed_fraction"] == 0.0

    def test_drop_removes_identifier(self, csv_path, tmp_path):
        out = tmp_path / "anon.csv"
        main(
            [
                str(csv_path), str(out),
                "--qi", "zipcode", "--drop", "job", "--k", "2",
            ]
        )
        published = read_csv(out)
        assert "job" not in published.column_names


class TestCLINewAlgorithms:
    @pytest.mark.parametrize("algorithm", ["flash", "bottom-up"])
    def test_lattice_search_algorithms_end_to_end(self, csv_path, tmp_path, algorithm):
        out = tmp_path / f"anon_{algorithm}.csv"
        rc = main(
            [
                str(csv_path), str(out),
                "--qi", "zipcode", "--qi", "job", "--numeric-qi", "age",
                "--sensitive", "disease", "--k", "2",
                "--algorithm", algorithm,
            ]
        )
        assert rc == 0
        published = read_csv(out, categorical=["zipcode", "job", "disease", "age"])
        groups = published.group_rows(["zipcode", "job", "age"])
        assert min(g.size for g in groups) >= 2

    def test_flash_and_incognito_agree_via_cli(self, csv_path, tmp_path, capsys):
        reports = {}
        for algorithm in ("flash", "incognito"):
            out = tmp_path / f"{algorithm}.csv"
            main(
                [
                    str(csv_path), str(out),
                    "--qi", "zipcode", "--qi", "job", "--numeric-qi", "age",
                    "--k", "2", "--algorithm", algorithm, "--report",
                ]
            )
            reports[algorithm] = json.loads(capsys.readouterr().err)
        assert (
            reports["flash"]["summary"]["node"]
            == reports["incognito"]["summary"]["node"]
        )
