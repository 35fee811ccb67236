"""Tests for CSV I/O and the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import io as rio
from repro.core.io import format_csv, parse_csv, read_csv, write_csv
from repro.core.table import Column, Table
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
#: split-based parse; TestReferenceParity also reruns them with CRLF line
#: ends, which sends the same cells through the csv-module parse.
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
}

#: Labels csv.writer quotes (or leaves alone) one way or another: edge
#: spaces, tab, an ASCII separator that str.strip removes, the other test
#: delimiter, non-ASCII, a lone quote, a lone CR and a lone delimiter.
HOSTILE_LABELS = [" x ", "a\tb", "\x1c", ";", "ü", '"', "\r", ","]
HOSTILE_ALPHABET = "a,\"\r\n \t\x1cü;"

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
        # A pipe cannot rewind, so the csv path parses the text read once.
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
        # Each line is one cell. The split path's row marker would split on
        # an LF delimiter, so this text takes the csv path.
        path = self._write(tmp_path, "a,b\nx,1\n\n y \n")
        expected = reference_read_csv(path, delimiter="\n")
        assert_same_table(read_csv(path, delimiter="\n"), expected)

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
