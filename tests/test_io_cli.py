"""Serialization round trips and the command line interface."""

import ast
import csv
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import veriscore
from veriscore import (
    CaseSet,
    EnsembleSet,
    ValidationError,
    fmt12,
    read_cases_csv,
    read_ensemble_csv,
    read_paired_csv,
    round12,
    write_cases_csv,
    write_json,
    write_paired_csv,
    write_scores_csv,
)
from veriscore.cli import main


def test_fmt12_round12_idempotent():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1e6, 1e6, 500):
        r = round12(x)
        assert round12(r) == r
        assert fmt12(r) == fmt12(x)
    assert fmt12(0.5) == "0.5"
    assert fmt12(1e-300) == "1e-300"


def _mean_of_written(vals) -> float:
    """The summary mean of a column: over its 12-digit cells read back."""
    return round12(np.mean([float(fmt12(v)) for v in vals]))


def test_summary_means_are_the_means_a_reader_of_the_file_computes(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.normal(3.0, 2.0, 100)
    means = write_scores_csv(tmp_path / "s.csv", [f"c{i}" for i in range(100)], {"v": vals})
    with open(tmp_path / "s.csv", newline="") as fh:
        re_read = [float(r["v"]) for r in csv.DictReader(fh)]
    assert means == {"v": round12(np.mean(re_read))}


def test_case_set_validation_and_access():
    cs = CaseSet(["a", "b"], [1.0, 2.0], [0.5, 2.5])
    assert len(cs) == 2
    assert cs.ids == ("a", "b")
    np.testing.assert_array_equal(cs.forecasts, [1.0, 2.0])
    np.testing.assert_array_equal(cs.observations, [0.5, 2.5])
    with pytest.raises(ValidationError):
        CaseSet(["a"], [1.0, 2.0], [0.5, 2.5])
    with pytest.raises(ValidationError):
        CaseSet([], [], [])
    with pytest.raises(ValidationError):
        CaseSet(["a"], [np.nan], [0.5])
    with pytest.raises(ValidationError):
        CaseSet(["a", ""], [1.0, 2.0], [0.5, 2.5])
    with pytest.raises(ValidationError):
        CaseSet(["a", "a"], [1.0, 2.0], [0.5, 2.5])


def test_constructed_ids_are_the_ids_a_reader_reads(tmp_path):
    # a CaseSet or EnsembleSet strips each id as the CSV reader does
    with pytest.raises(ValidationError, match="case ids must be unique"):
        CaseSet(["a", " a "], [1.0, 2.0], [0.5, 2.5])
    with pytest.raises(ValidationError, match="case ids must be non-empty"):
        CaseSet([" "], [1.0], [0.5])
    with pytest.raises(ValidationError, match="case ids must be unique"):
        EnsembleSet(["a", "a\t"], [1.0, 2.0], [[1.0], [2.0]])
    with pytest.raises(ValidationError, match="case ids must be non-empty"):
        EnsembleSet(["\n"], [1.0], [[1.0]])
    cs = CaseSet([" b", "c"], [1.0, 2.0], [0.5, 2.5])
    assert cs.ids == ("b", "c")
    write_cases_csv(cs, tmp_path / "c.csv")
    assert read_cases_csv(tmp_path / "c.csv").ids == cs.ids
    ens = EnsembleSet([" b ", "c"], [1.0, 2.0], [[1.0, 3.0], [2.0, 2.5]])
    assert ens.ids == ("b", "c")


def test_cases_csv_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    cs = CaseSet(
        [f"c{i}" for i in range(30)],
        rng.normal(0, 7, 30),
        rng.normal(0, 7, 30),
    )
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_cases_csv(cs, p1)
    write_cases_csv(read_cases_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_paired_csv_round_trip_and_checks(tmp_path):
    ids = ["a", "b", "c"]
    y = np.array([1.0, 2.0, 3.0])
    ca = CaseSet(ids, [1.5, 2.5, 3.5], y)
    cb = CaseSet(ids, [0.5, 1.5, 2.5], y)
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_paired_csv(ca, cb, p1)
    assert p1.read_bytes() == (
        b"case_id,forecast_a,forecast_b,obs\r\n"
        b"a,1.5,0.5,1\r\nb,2.5,1.5,2\r\nc,3.5,2.5,3\r\n"
    )
    ra, rb = read_paired_csv(p1)
    write_paired_csv(ra, rb, p2)
    assert p1.read_bytes() == p2.read_bytes()
    with pytest.raises(ValidationError):
        write_paired_csv(ca, CaseSet(["a", "b", "x"], [0.5, 1.5, 2.5], y), p2)
    with pytest.raises(ValidationError):
        write_paired_csv(ca, CaseSet(ids, [0.5, 1.5, 2.5], y + 1.0), p2)


def test_read_cases_csv_errors(tmp_path):
    p = tmp_path / "cases.csv"
    # the three CSV schemas share one reader and its messages
    for read, header, rest in (
        (read_cases_csv, "case_id,forecast,obs", "2"),
        (read_paired_csv, "case_id,forecast_a,forecast_b,obs", "1,2"),
        (read_ensemble_csv, "case_id,obs,m1", "2"),
    ):
        name, width = header.split(",")[1], header.count(",") + 1
        for text, message in (
            ("case_id,forecast,observation\na,1,2\n", "header"),
            (f"{header}\na,1,{rest}\na,3,{rest}\n", "duplicate case ids"),
            (f"{header}\na,one,{rest}\n", f":2: {name} value 'one' is not a"),
            (f"{header}\na,1,{rest}\n\nb,inf,{rest}\n", f":4: {name} value must be"),
            (f"{header}\n ,1,{rest}\n", ":2: empty case_id"),
            (f"{header}\na,1\n", f":2: expected {width} columns, got 2"),
            (f"{header}\n", "no forecast cases"),
            ("", "empty file"),
        ):
            p.write_text(text)
            with pytest.raises(ValidationError, match=message):
                read(p)
        # undecodable bytes and oversized fields are input errors too
        p.write_bytes(f"{header}\na,1,{rest}\n".encode() + b"b,\xff,1\n")
        with pytest.raises(ValidationError, match="not UTF-8 text"):
            read(p)
        p.write_text(f"{header}\n{'x' * 140000},1,{rest}\n")
        with pytest.raises(ValidationError, match=":2: field larger than"):
            read(p)
        # a UTF-8 byte order mark before the header is not part of it
        p.write_text(f"\ufeff{header}\na,1,{rest}\n", encoding="utf-8")
        read(p)


# the three schemas as (columns, members, header)
SCHEMAS = (
    (["case_id", "forecast", "obs"], False, "case_id,forecast,obs"),
    (["case_id", "forecast_a", "forecast_b", "obs"], False, "case_id,forecast_a,forecast_b,obs"),
    (["case_id", "obs"], True, "case_id,obs,m1,m2"),
)
ID_CELLS = ["a", "b", " a ", '"x,y"', '"a""b"', '"p\r\nq"', '"p\nq"', '"in ner"', '""', " "]
VALUE_CELLS = [
    "1", "-0", "+2.5", "1e5", "-2.5E-3", "1_0", " 3 ", '"4"', "4.9e-324", "1e-310",
    "0.30000000000000004", "1.2345678901234567", "", "nan", "1e400", "x", "\x1c5", "5\x1f",
]
BLANK_LINES = ["", "   ", " , ,"]


def _both_readers(path, columns, members):
    """What ``_read_table`` and the row reader make of one file: the ids
    and the matrix bytes, or the error text."""

    def outcome(read):
        try:
            ids, matrix = read(path, columns, members)
        except ValidationError as exc:
            return str(exc)
        return ids, matrix.shape, matrix.tobytes()

    return outcome(veriscore.io._read_table), outcome(veriscore.io._read_rows)


def test_table_reader_matches_the_row_reader_on_a_corpus(tmp_path):
    p = tmp_path / "t.csv"
    for columns, members, header in SCHEMAS:
        width = header.count(",")

        def row(case_id, *values):
            return ",".join([case_id, *(values + ("2.5",) * width)[:width]])

        bodies = [
            [row(i, "1") for i in ID_CELLS[2:8]],
            [row("a", "1_0"), row("b", "2")],
            [row(f"c{j}", v) for j, v in enumerate(VALUE_CELLS[:12])],
            [row("a", "1"), row("b", "\x1c5")],
            [row("a", "1"), "", row("b", "2")],
            [row("a", "1"), "   ", row("b", "2")],
            [row("a", "1"), " , ,", row("b", "2")],
            ["", "   ", row("a", "1")],
            [row("a", "1"), row("a", "2")],
            [row("a", "1"), row(" ", "2")],
            [row('"p\nq"', "1"), row("b", "inf")],
            [row("a", "1"), row("b", "x")],
            [row("a", "1"), "a,1"],
            [row("a", "1"), row("b", "1e400")],
            [],
            ["", ""],
        ]
        for body in bodies:
            for bom, end, last in itertools.product(("", "\ufeff"), ("\n", "\r\n"), ("\n", "")):
                text = bom + end.join([header, *body]) + last
                p.write_bytes(text.encode("utf-8"))
                fast, rows = _both_readers(p, columns, members)
                assert fast == rows, text


def test_table_reader_matches_the_row_reader_where_a_path_read_could_differ(tmp_path):
    # numpy reads a file without CR bytes by its path, with universal newlines
    # and by suffix, decompressing; these inputs are where that could show
    for columns, members, header in SCHEMAS:
        width = header.count(",")
        name = header.split(",")[1]

        def row(case_id, value="1"):
            return ",".join([case_id, *(value,) * width])

        headers = [header, header.replace(name, f'"{name}\n"', 1)]  # two lines
        bodies = [
            [row('"p\rq"'), row("b")],
            [row('"p\r\nq"'), row("b")],
            [row('"p\nq"'), row('"r\n\ns"', "2"), row("b")],
            ["", "", row("a"), row("b")],
            ["   ", "", row('"x\ny"'), row("b")],
            [" , ,", row("a")],
            ["", "   "],
        ]
        cases = itertools.product(
            headers, bodies, ("", "\ufeff"), ("\n", "\r\n"), ("c.csv", "c.csv.gz", "c.csv.xz")
        )
        for head, body, bom, end, file in cases:
            p = tmp_path / file
            p.write_bytes((bom + end.join([head, *body]) + end).encode("utf-8"))
            fast, rows = _both_readers(p, columns, members)
            assert fast == rows, (file, head, body, bom, end)


def test_a_file_without_cr_bytes_reaches_numpy_by_its_path(tmp_path, monkeypatch):
    seen = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        seen.append(fname)
        return loadtxt(fname, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("read by the row reader")

    monkeypatch.setattr(np, "loadtxt", spy)
    monkeypatch.setattr(veriscore.io, "_read_rows", refuse)
    # a BOM, a header on two lines, blank lines and an id on two lines
    p = tmp_path / "c.csv"
    p.write_bytes(b'\xef\xbb\xbfcase_id,"forecast\n",obs\n\n   \n"a\nb",1,2\nc,3,4\n')
    got = read_cases_csv(p)
    assert got.ids == ("a\nb", "c") and got.forecasts.tolist() == [1.0, 3.0]
    assert len(seen) == 1 and isinstance(seen[0], str) and os.path.samefile(seen[0], p)
    # the writer's CRLF files are fed to numpy line by line
    write_cases_csv(got, p)
    seen.clear()
    assert read_cases_csv(p).ids == got.ids
    assert len(seen) == 1 and not isinstance(seen[0], str)


@st.composite
def _csv_texts(draw):
    columns, members, header = draw(st.sampled_from(SCHEMAS))
    width = header.count(",")
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
        else:
            cells = [draw(st.sampled_from(ID_CELLS))]
            cells += draw(st.lists(st.sampled_from(VALUE_CELLS), min_size=width, max_size=width))
            lines.append(",".join(cells))
    text = draw(st.sampled_from(["", "\ufeff"]))
    text += "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return columns, members, text


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_csv_texts())
def test_table_reader_matches_the_row_reader_on_generated_files(tmp_path, case):
    columns, members, text = case
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode("utf-8"))
    fast, rows = _both_readers(p, columns, members)
    assert fast == rows


def test_well_formed_files_never_take_the_row_path(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("read by the row reader")

    monkeypatch.setattr(veriscore.io, "_read_rows", refuse)
    rng = np.random.default_rng(15)
    n = 10_000
    # a few ids that csv.writer quotes: commas, quotes, a line break
    ids = [f"c{i}" if i % 1000 else f'c "{i}",\n{i}' for i in range(n)]
    x, y, z = (np.array([round12(v) for v in col]) for col in rng.normal(4.0, 15.0, (3, n)))
    write_cases_csv(CaseSet(ids, x, y), tmp_path / "c.csv")
    got = read_cases_csv(tmp_path / "c.csv")
    assert got.ids == tuple(ids)
    assert got.forecasts.tobytes() == x.tobytes() and got.observations.tobytes() == y.tobytes()
    write_paired_csv(CaseSet(ids, x, y), CaseSet(ids, z, y), tmp_path / "p.csv")
    a, b = read_paired_csv(tmp_path / "p.csv")
    assert a.ids == b.ids == tuple(ids) and b.forecasts.tobytes() == z.tobytes()
    write_scores_csv(tmp_path / "e.csv", ids, {"obs": y, "m1": x, "m2": z})
    ens = read_ensemble_csv(tmp_path / "e.csv")
    assert ens.ids == tuple(ids)


def test_errors_after_a_two_line_id_cite_the_physical_line(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text('case_id,forecast,obs\n"a\nb",1,2\nc,1,inf\n')
    with pytest.raises(ValidationError, match=r"c\.csv:4: obs value must be finite$"):
        read_cases_csv(p)
    p.write_text('case_id,forecast,obs\n"a\r\nb\nc",1,2\n\nd,1,2\nd,x,2\n')
    with pytest.raises(ValidationError, match=r"c\.csv:7: forecast value 'x' is not a"):
        read_cases_csv(p)


def test_write_scores_csv_validates_shapes(tmp_path):
    with pytest.raises(ValidationError, match="shape"):
        write_scores_csv(
            tmp_path / "s.csv", ["a", "b"], {"total": np.array([1.0])}
        )


def test_written_bytes_and_means_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    ids = [f"c{i}" for i in range(10)]
    columns = {"total": rng.normal(0.0, 1e3, 10), "component_0": rng.normal(0.0, 1.0, 10)}

    def written():
        means = write_scores_csv(tmp_path / "s.csv", ids, columns)
        return (tmp_path / "s.csv").read_bytes(), means

    default = written()  # every row in one block
    assert default[1] == {name: _mean_of_written(c) for name, c in columns.items()}
    for rows in (1, 3):
        monkeypatch.setattr(veriscore.io, "WRITE_BLOCK_ROWS", rows)
        assert written() == default


def _ulps(x, k):
    """x and its k nearest floats on each side."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


FORMAT_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,  # subnormals
    2.2250738585072014e-308, -2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e308, -1.7976931348623157e308, float("inf"), float("-inf"),
    *_ulps(1e12, 3), *_ulps(999999999999.0, 3), *_ulps(999999999999.5, 3),
    *_ulps(123456789012.5, 3), *_ulps(-1.0000000000005, 3), *_ulps(0.1234567890125, 3),
    *_ulps(9.9999999999995e-5, 3), *_ulps(2.5e-15, 3), 0.1, 1 / 3, -2.5,
]


def _cells_of_written_table(tmp_path, values, width):
    """The table writer on ``values`` in rows of ``width``: the written
    cells and the floats it returns, both row-major."""
    rows = np.reshape(values, (-1, width))
    header = ["case_id"] + [f"v{j}" for j in range(width)]
    back = veriscore.io._write_table(
        tmp_path / "t.csv", header, [f"c{i}" for i in range(len(rows))], rows.T
    )
    with open(tmp_path / "t.csv", newline="") as fh:
        lines = fh.read().split("\r\n")
    assert lines[0] == ",".join(header) and lines[-1] == ""
    cells = [c for line in lines[1:-1] for c in line.split(",")[1:]]
    return cells, back.T.ravel()


def _assert_cells_are_fmt12_and_read_back_as_float(cells, back, values):
    assert cells == [fmt12(v) for v in values]
    assert back.tobytes() == np.array([float(c) for c in cells]).tobytes()


def test_block_template_cells_are_fmt12_and_read_back_as_float(tmp_path):
    for width in (1, 3):
        values = FORMAT_EDGES[: len(FORMAT_EDGES) // width * width]
        cells, back = _cells_of_written_table(tmp_path, values, width)
        _assert_cells_are_fmt12_and_read_back_as_float(cells, back, values)
    assert fmt12(-0.0) == "-0" and "-0" in cells


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    values=st.lists(
        st.floats(allow_nan=False) | st.sampled_from(FORMAT_EDGES), min_size=1, max_size=24
    ),
    width=st.sampled_from([1, 2, 3]),
)
def test_block_template_matches_fmt12_and_float_on_generated_values(tmp_path, values, width):
    values = values * width
    cells, back = _cells_of_written_table(tmp_path, values, width)
    _assert_cells_are_fmt12_and_read_back_as_float(cells, back, values)


def _reference_table(header, keys, columns):
    """What the table writer must produce: ``csv.writer`` rows of
    ``fmt12`` cells, and those cells read back by ``float``."""
    cells = [[fmt12(v) for v in col] for col in columns]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(keys, *cells))
    return buf.getvalue().encode("utf-8"), [[float(c) for c in col] for col in cells]


# pieces of ids and column names that csv.writer quotes, or that a reader strips
AWKWARD = ["", ",", '"', '""', "\r", "\n", "\r\n", " ", "  ", "ä", "名前", "\u2028", "x,\"y\"\n"]


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    affixes=st.lists(
        st.tuples(st.sampled_from(AWKWARD), st.sampled_from(AWKWARD)), min_size=1, max_size=12
    ),
    names=st.lists(st.sampled_from(AWKWARD), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_writers_match_csv_writer_fmt12_and_float(tmp_path, monkeypatch, affixes, names, seed):
    # ids stay unique and non-empty once a reader strips them
    ids = [f"{a}c{i}{b}" for i, (a, b) in enumerate(affixes)]
    n = len(ids)
    rng = np.random.default_rng(seed)
    x, y, z = rng.normal(0.0, 10.0, (3, n)) * 10.0 ** rng.integers(-12, 12, (3, n))
    columns = {f"{name}{j}": col for j, (name, col) in enumerate(zip(names, (x, y, z)))}
    scores = _reference_table(["case_id", *columns], ids, columns.values())
    # a CaseSet strips its ids as the reader does
    stripped = tuple(i.strip() for i in ids)
    cases = _reference_table(["case_id", "forecast", "obs"], stripped, [x, y])
    paired = _reference_table(["case_id", "forecast_a", "forecast_b", "obs"], stripped, [x, z, y])
    for rows in (1, 3, veriscore.io.WRITE_BLOCK_ROWS):
        monkeypatch.setattr(veriscore.io, "WRITE_BLOCK_ROWS", rows)
        means = write_scores_csv(tmp_path / "s.csv", ids, columns)
        assert (tmp_path / "s.csv").read_bytes() == scores[0]
        assert means == {name: round12(np.mean(col)) for name, col in zip(columns, scores[1])}
        write_cases_csv(CaseSet(ids, x, y), tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == cases[0]
        got = read_cases_csv(tmp_path / "c.csv")
        assert got.ids == stripped
        assert np.array([got.forecasts, got.observations]).tobytes() == np.array(cases[1]).tobytes()
        write_paired_csv(CaseSet(ids, x, y), CaseSet(ids, z, y), tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == paired[0]
        a, b = read_paired_csv(tmp_path / "p.csv")
        assert a.ids == b.ids == stripped
        assert np.array([a.forecasts, b.forecasts, a.observations]).tobytes() == (
            np.array(paired[1]).tobytes()
        )


def test_table_writer_quotes_keys_as_csv_writer_does(tmp_path):
    keys = ["plain", None, 1.5, "a,b", 'say "hi"', "two\nlines", "cr\r", " pad "]
    back = veriscore.io._write_table(tmp_path / "t.csv", ["key", "v"], keys, [np.arange(8.0)])
    assert (tmp_path / "t.csv").read_bytes() == _reference_table(["key", "v"], keys, [range(8)])[0]
    assert back.tolist() == [list(range(8))]
    with pytest.raises(ValidationError, match="at least one value column"):
        veriscore.io._write_table(tmp_path / "t.csv", ["key"], keys, [])


def _written_rows():
    """Rows of every width from 1 to 4 whose cells are zeros of either
    sign, repeats of the row's first cell, or values at the format's
    edges, in the mixes the table writer treats apart."""
    rows = {
        1: [[0.0], [-0.0], [5e-324], [float("inf")], [1.5]],
        3: [
            [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, 1.0],  # zeros of either sign
            [0.0, 0.0, -0.0], [0.0, 2.5, -0.0], [-0.0, 2.5, 0.0],  # a first cell of +-0.0
            [2.5, 2.5, 2.5], [-1 / 3, -1 / 3, 7.0], [1e12, 0.0, 1e12],  # repeats
            [5e-324, 5e-324, -5e-324], [1e-310, 0.0, 1e-310],  # subnormals
            [float("inf"), float("inf"), float("-inf")], [float("-inf"), -0.0, 1.0],
        ],
    }
    rng = np.random.default_rng(27)
    pool = [0.0, -0.0, 5e-324, -1e-310, float("inf"), float("-inf"), 1 / 3, -2.5, 1e12]
    for width in (1, 2, 3, 4):
        for _ in range(40):
            first = pool[rng.integers(len(pool))]
            row = [first]
            for _ in range(width - 1):
                pick = rng.integers(4)
                row.append((first, 0.0, -0.0, pool[rng.integers(len(pool))])[pick])
            rows.setdefault(width, []).append(row)
    return rows


def test_table_writer_reuses_zero_and_repeated_texts_exactly(tmp_path, monkeypatch):
    # a +0.0 cell is written "0" and a repeat of the row's first cell reuses
    # its text; the bytes and the cells read back must not show it
    for width, rows in _written_rows().items():
        header = ["case_id"] + [f"v{j}" for j in range(width)]
        keys = [f"c{i}" for i in range(len(rows))]
        columns = np.array(rows).T
        want, floats = _reference_table(header, keys, columns)
        for block in (1, 3, 7, veriscore.io.WRITE_BLOCK_ROWS):
            monkeypatch.setattr(veriscore.io, "WRITE_BLOCK_ROWS", block)
            back = veriscore.io._write_table(tmp_path / "t.csv", header, keys, columns)
            assert (tmp_path / "t.csv").read_bytes() == want, (width, block)
            assert back.tobytes() == np.array(floats).tobytes(), (width, block)


def test_table_writer_reuses_texts_across_default_blocks(tmp_path):
    # rows on both sides of a block boundary at the default block size
    n = veriscore.io.WRITE_BLOCK_ROWS + 5
    rng = np.random.default_rng(28)
    total = rng.normal(0.0, 10.0, n)
    total[::3] = 0.0
    parts = np.where(rng.random((3, n)) < 0.5, 0.0, total)  # 0.0 or the total
    parts[1, ::7] = -0.0
    parts[2, ::5] = rng.normal(0.0, 1.0, n)[::5]
    columns = [total, *parts]
    header = ["case_id", "total", "a", "b", "c"]
    keys = [f"c{i}" for i in range(n)]
    want, floats = _reference_table(header, keys, columns)
    back = veriscore.io._write_table(tmp_path / "t.csv", header, keys, columns)
    assert (tmp_path / "t.csv").read_bytes() == want
    assert back.tobytes() == np.array(floats).tobytes()


def test_write_json_layout(tmp_path):
    p = tmp_path / "o.json"
    write_json({"b": 1, "a": [1.5, None]}, p)
    text = p.read_text()
    assert text.endswith("\n")
    assert list(json.loads(text)) == ["b", "a"]  # insertion order kept
    with pytest.raises(ValueError):
        write_json({"x": float("nan")}, p)


# --- command line ------------------------------------------------------------


def _write_cases(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case_id", "forecast", "obs"])
        w.writerows(rows)


def test_cli_score_summary_matches_written_cases(tmp_path, capsys):
    inp = tmp_path / "in.csv"
    _write_cases(inp, [["a", 12, 8], ["b", 5, 7], ["c", 15, 20]])
    out = tmp_path / "run"
    rc = main(
        [
            "score",
            "--functional",
            "expectile",
            "--alpha",
            "0.5",
            "--input",
            str(inp),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "3 cases" in capsys.readouterr().out
    with open(f"{out}.cases.csv") as fh:
        rows = list(csv.DictReader(fh))
    totals = [float(r["total"]) for r in rows]
    assert totals == [16.0, 4.0, 25.0]
    summary = json.loads(open(f"{out}.summary.json").read())
    assert summary["n"] == 3
    assert summary["mean"]["total"] == _mean_of_written(totals)
    assert summary["partition"] is None


def test_cli_quantile_cases_have_no_negative_zero(tmp_path):
    inp = tmp_path / "in.csv"
    _write_cases(inp, [["same", 1, 1], ["below", 1, 2], ["above", 12, 11], ["far", 12, 2]])
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"cutpoints": [10.0]}))
    out = tmp_path / "q"
    argv = ["score", "--functional", "quantile", "--alpha", "0.3", "--input", str(inp)]
    assert main([*argv, "--partition", str(part), "--out", str(out)]) == 0
    rows = list(csv.reader(open(f"{out}.cases.csv")))
    cells = [c for row in rows[1:] for c in row[1:]]
    assert "0" in cells and not any(c.startswith("-") for c in cells), rows


def test_cli_score_with_partition_and_config_override(tmp_path):
    inp = tmp_path / "in.csv"
    _write_cases(inp, [["a", 12, 8], ["b", 5, 7]])
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"cutpoints": [10.0]}))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(
        json.dumps(
            {
                "functional": "expectile",
                "alpha": 0.25,
                "partition": str(part),
                "input": str(inp),
                "out": str(tmp_path / "cfgrun"),
            }
        )
    )
    # config alone
    assert main(["score", "--config", str(cfgfile)]) == 0
    cases = list(csv.DictReader(open(tmp_path / "cfgrun.cases.csv")))
    assert set(cases[0]) == {"case_id", "total", "component_0", "component_1"}
    comp_sum = float(cases[0]["component_0"]) + float(cases[0]["component_1"])
    assert comp_sum == pytest.approx(float(cases[0]["total"]), rel=1e-9)
    # explicit flag overrides the config value
    assert (
        main(
            [
                "score",
                "--config",
                str(cfgfile),
                "--alpha",
                "0.5",
                "--out",
                str(tmp_path / "flagrun"),
            ]
        )
        == 0
    )
    flagged = json.loads(open(tmp_path / "flagrun.summary.json").read())
    assert flagged["score"]["alpha"] == 0.5
    base = json.loads(open(tmp_path / "cfgrun.summary.json").read())
    assert base["score"]["alpha"] == 0.25


def test_cli_synth_outputs_are_deterministic(tmp_path):
    args = ["synth", "--n", "500", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    for suffix in (".cases.csv", ".meta.json"):
        b1 = (tmp_path / f"r1{suffix}").read_bytes()
        b2 = (tmp_path / f"r2{suffix}").read_bytes()
        assert b1 == b2
    meta = json.loads(open(tmp_path / "r1.meta.json").read())
    assert meta["n"] == 500 and meta["seed"] == 11
    assert meta["streams"] == {"observations": 0, "errors_a": 1, "errors_b": 2}


def _digests(prefix, suffixes):
    return {
        s: hashlib.sha256(Path(f"{prefix}.{s}").read_bytes()).hexdigest()
        for s in suffixes
    }


def test_cli_score_partition_output_bytes_are_pinned(tmp_path):
    # ids that csv must quote (comma, double quote) or keep (inner space)
    rng = np.random.default_rng(23)
    y = rng.normal(4.0, 15.0, 2000)
    x = y + rng.normal(0.0, 2.0, 2000)
    ids = [f"c{i:04d}" for i in range(2000)]
    ids[:3] = ["a,b", 'say "hi"', "inner space"]
    inp = tmp_path / "in.csv"
    rows = zip(ids, map(repr, x.tolist()), map(repr, y.tolist()))
    _write_cases(inp, [list(row) for row in rows])
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"cutpoints": [-10.0, 0.0, 10.0]}))
    argv = ["score", "--functional", "expectile", "--alpha", "0.5"]
    argv += ["--input", str(inp), "--partition", str(part)]
    assert main([*argv, "--out", str(tmp_path / "s")]) == 0
    with open(tmp_path / "s.cases.csv", newline="") as fh:
        assert [row[0] for row in csv.reader(fh)][1:4] == ids[:3]
    assert _digests(tmp_path / "s", ("cases.csv", "summary.json")) == {
        "cases.csv": "d0e0675d3fa8fb305887112a71626bf6f831d509d5349c4a2a194ce5219a694d",
        "summary.json": "cbd702c04d5f6ccc866bd55fba310fb4066c328f76eff954507c878279c2ebc8",
    }


@pytest.mark.parametrize(
    "ci, digest",
    [
        (["--ci", "normal"],
         "f95771e956be550cf355a5df9487806902b37ff708db998b68f68082e46fcfc9"),
        (["--ci", "bootstrap", "--bootstrap-samples", "400", "--seed", "2"],
         "2f5b195cbe3e1f4e86a896a11b527aec12e28d6bd74620fff5f330fabf2f6c4c"),
    ],
    ids=["normal", "bootstrap"],
)
def test_cli_compare_report_bytes_are_pinned(tmp_path, ci, digest):
    assert main(["synth", "--n", "1500", "--seed", "9", "--out", str(tmp_path / "d")]) == 0
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"cutpoints": [-10.0, 0.0, 10.0]}))
    argv = ["compare", "--functional", "expectile", "--alpha", "0.5", *ci]
    argv += ["--input", str(tmp_path / "d.cases.csv"), "--partition", str(part)]
    assert main([*argv, "--out", str(tmp_path / "c")]) == 0
    assert _digests(tmp_path / "c", ("report.json",)) == {"report.json": digest}


def test_cli_prints_the_means_of_the_summary(tmp_path, capsys):
    # the score 0.004999999999999 is written as 0.005, which prints as 0.01
    inp = tmp_path / "in.csv"
    inp.write_text("case_id,forecast,obs\nc1,0.009999999999998,0\n")
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"cutpoints": [1.0]}))
    argv = ["score", "--functional", "quantile", "--alpha", "0.5", "--input", str(inp)]
    assert main([*argv, "--partition", str(part), "--out", str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s.summary.json").read_text())
    assert summary["mean"] == {"total": 0.005, "components": [0.005, 0.0]}
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["1 cases, mean score 0.01", "component 0: 0.01  component 1: 0.00"]



def test_cli_compare_prints_the_means_of_the_report(tmp_path, capsys):
    # mean A and the difference 0.004999999999999 are written as 0.005
    paired = tmp_path / "paired.csv"
    paired.write_text(
        "case_id,forecast_a,forecast_b,obs\n"
        "c1,0.009999999999998,0,0\nc2,0.009999999999998,0,0\n"
    )
    argv = ["compare", "--functional", "quantile", "--alpha", "0.5", "--input", str(paired)]
    assert main([*argv, "--out", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c.report.json").read_text())
    assert report["means"]["A"]["total"] == report["difference"]["total"] == 0.005
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "mean A: 0.01   mean B: 0.00   diff: 0.01"
    assert lines[2] == "95% CI (normal) for diff: [0.01, 0.01]"

def test_cli_synth_output_bytes_are_pinned(tmp_path):
    assert main(["synth", "--n", "500", "--seed", "3", "--out", str(tmp_path / "r")]) == 0
    assert _digests(tmp_path / "r", ("cases.csv", "meta.json")) == {
        "cases.csv": "de401c3d714d6c084cf13dcd1639365722e3e234e94a15c41af0fb4593b65554",
        "meta.json": "077f57db61603577067c5d5860686e0ca84246e490cfd4cc88c236e270a7b858",
    }


def test_cli_help_states_no_library_default(capsys):
    # a default lives only in the library's signature, so help cannot go stale
    for command in (
        "score", "compare", "murphy", "crps", "synth", "hedge", "validate-partition"
    ):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert not re.search(r"\(default\s+\d", text), command


def _run_with_config(tmp_path, command, cfg, *flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), *flags])


def test_cli_config_keys_are_the_subcommands_flags(tmp_path, capsys):
    inp = tmp_path / "in.csv"
    _write_cases(inp, [["a", 12, 8], ["b", 5, 7]])
    base = {"functional": "quantile", "input": str(inp), "out": str(tmp_path / "o")}
    # a misspelled key, a dashed key and a key of another subcommand
    for key in ("aplha", "bootstrap-samples", "ci"):
        assert _run_with_config(tmp_path, "score", {**base, key: 0.9}) == 2
        err = capsys.readouterr().err
        assert f"unknown config key {key!r} for score" in err
    assert not list(tmp_path.glob("o.*"))
    # a value goes through its flag's choices and type
    for cfg, message in (
        ({"ci": "median"}, "invalid choice 'median'"),
        ({"functional": "mode"}, "invalid choice 'mode'"),
        ({"generator": "cubic"}, "invalid choice 'cubic'"),
        ({"alpha": "high"}, "'alpha' for compare: invalid value 'high'"),
        ({"seed": 2.5}, "'seed' for compare: invalid value 2.5"),
        ({"bootstrap_samples": 1e999}, "invalid value inf"),
        ({"labels": "A"}, "labels must be two"),
    ):
        assert _run_with_config(tmp_path, "compare", {**base, **cfg}) == 2
        assert message in capsys.readouterr().err, cfg
    # an integral float is an integer, and a given flag overrides the config
    argv = ["hedge", "--option", "4", "--seed", "1", "--out", str(tmp_path / "f")]
    assert main(argv) == 0
    cfg = {"option": 4.0, "n": 8000.0, "seed": 9, "out": str(tmp_path / "c")}
    assert _run_with_config(tmp_path, "hedge", cfg, "--seed", "1", "--n", "8000") == 0
    flagged = (tmp_path / "f.hedge.json").read_bytes()
    assert (tmp_path / "c.hedge.json").read_bytes() == flagged


def test_cli_config_booleans_exit_2_before_any_file(tmp_path, capsys):
    # no flag is boolean, so a JSON true or false is never a flag's value
    cases, paired = tmp_path / "c.csv", tmp_path / "p.csv"
    _write_cases(cases, [["a", 12, 8], ["b", 5, 7]])
    paired.write_text("case_id,forecast_a,forecast_b,obs\na,12,11,8\nb,5,6,7\n")
    out = str(tmp_path / "o")
    runs = (
        ("score", {"functional": "huber_mean", "nu": True, "input": str(cases)}, "'nu'", True),
        ("synth", {"n": True, "seed": False}, "'n'", True),
        ("compare", {"functional": "quantile", "alpha": 0.5, "input": str(paired),
                     "bootstrap_samples": False}, "'bootstrap_samples'", False),
    )
    for command, cfg, key, value in runs:
        assert _run_with_config(tmp_path, command, {**cfg, "out": out}) == 2
        err = capsys.readouterr().err
        assert f"config key {key} for {command}: invalid value {value}" in err
    assert not list(tmp_path.glob("o.*"))


def test_cli_grid_labels_and_generator_read_alike_from_flags_and_config(tmp_path):
    assert main(["synth", "--n", "300", "--seed", "2", "--out", str(tmp_path / "d")]) == 0
    paired = str(tmp_path / "d.cases.csv")
    spec = ["--functional", "huber_mean", "--nu", "2", "--input", paired]
    runs = (
        (
            "murphy",
            ("murphy.csv", "murphy.json"),
            ["--grid=-5,40,17", "--labels", "x,y"],
            {"grid": "-5,40,17", "labels": "x,y"},
            {"grid": [-5, 40, 17], "labels": ["x", "y"]},
        ),
        (
            "compare",
            ("report.json",),
            ["--labels", "x,y", "--generator", "scaled_quadratic_phi"],
            {"labels": "x,y", "generator": "scaled_quadratic_phi"},
            {"labels": ["x", "y"], "generator": "scaled_quadratic_phi"},
        ),
    )
    for command, suffixes, flags, *configs in runs:
        assert main([command, *spec, *flags, "--out", str(tmp_path / "f")]) == 0
        expected = _digests(tmp_path / "f", suffixes)
        for i, cfg in enumerate(configs):
            cfg = {"functional": "huber_mean", "nu": 2, "input": paired, **cfg}
            out = str(tmp_path / f"c{i}")
            assert _run_with_config(tmp_path, command, {**cfg, "out": out}) == 0
            assert _digests(out, suffixes) == expected, (command, cfg)
    # the generator is read: the default one gives another report
    assert main(["compare", *spec, "--labels", "x,y", "--out", str(tmp_path / "g")]) == 0
    assert _digests(tmp_path / "g", ("report.json",)) != expected


def test_cli_compare_on_synth_output(tmp_path):
    assert main(["synth", "--n", "400", "--seed", "5", "--out", str(tmp_path / "d")]) == 0
    rc = main(
        [
            "compare",
            "--functional",
            "expectile",
            "--alpha",
            "0.5",
            "--input",
            str(tmp_path / "d.cases.csv"),
            "--out",
            str(tmp_path / "cmp"),
            "--labels",
            "sysA,sysB",
        ]
    )
    assert rc == 0
    report = json.loads(open(tmp_path / "cmp.report.json").read())
    assert report["labels"] == ["sysA", "sysB"]
    assert report["n"] == 400
    assert report["ci"]["method"] == "normal"
    lo, hi = report["ci"]["total"]
    assert lo < hi


def test_cli_murphy_named_inputs(tmp_path):
    a, b = tmp_path / "alpha_sys.csv", tmp_path / "beta_sys.csv"
    _write_cases(a, [["a", 1.0, 2.0], ["b", 3.0, 2.5]])
    _write_cases(b, [["a", 1.5, 2.0], ["b", 2.0, 2.5]])
    rc = main(
        [
            "murphy",
            "--functional",
            "quantile",
            "--alpha",
            "0.5",
            "--inputs",
            str(a),
            str(b),
            "--grid",
            "0,4,9",
            "--out",
            str(tmp_path / "m"),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "m.murphy.csv").read_text().strip().splitlines()
    assert lines[0] == "theta,alpha_sys_mean,beta_sys_mean"
    assert len(lines) == 10
    meta = json.loads(open(tmp_path / "m.murphy.json").read())
    assert meta["systems"] == ["alpha_sys", "beta_sys"]
    assert meta["grid"] == {"lo": 0.0, "hi": 4.0, "n": 9}
    # exactly one input form must be given
    assert main(["murphy", "--functional", "quantile", "--alpha", "0.5", "--out", "x"]) == 2


def test_cli_crps_hand_value(tmp_path):
    ens = tmp_path / "ens.csv"
    ens.write_text("case_id,obs,m1,m2\na,1.0,0.0,2.0\n")
    rc = main(["crps", "--input", str(ens), "--out", str(tmp_path / "c")])
    assert rc == 0
    rows = list(csv.DictReader(open(tmp_path / "c.cases.csv")))
    assert float(rows[0]["total"]) == 0.5
    summary = json.loads(open(tmp_path / "c.summary.json").read())
    assert summary["score"] == {"kind": "crps"}
    assert summary["mean"]["total"] == 0.5


def test_cli_hedge_writes_report(tmp_path):
    rc = main(
        ["hedge", "--option", "4", "--n", "2000", "--seed", "1", "--out", str(tmp_path / "h")]
    )
    assert rc == 0
    rep = json.loads(open(tmp_path / "h.hedge.json").read())
    assert rep["option"] == 4
    assert rep["strategies"][0]["gain"] == 0.0
    pins = {
        1: "073ab2b598714eed11559c7370d3770e5734b130c7de59ffe726657a7c1b92d9",
        2: "53706d1670a6c38e81fa157d4b309928453d18d0789af174ea7bc42f9f3907ee",
        3: "e290b9aa26c5f02bf2afd46ebb24863984055b79e144b3c3f14a36ef30472d7a",
        4: "441d62dc44ec538f759fe15cdaf05351c1b43da77662ac8a0c646947be27020f",
        5: "d5d56a9908407abe8e2bc8cdd6f18c7cc0bcb0bf1d0de1638cb588224f8371c0",
    }
    for option, digest in pins.items():
        out = tmp_path / f"h{option}"
        argv = ["hedge", "--option", str(option), "--n", "2000", "--seed", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        assert _digests(out, ("hedge.json",)) == {"hedge.json": digest}, option


def test_cli_hedge_overflow_exits_3_and_writes_nothing(tmp_path, capsys):
    # e^300 forecasts square past the largest float: se is inf at mu 300, and
    # every score is nan at mu 800, where the forecasts themselves overflow
    for option, mu_mean, what in ((5, "300", "se is inf"), (1, "800", "mean_score is nan")):
        argv = ["hedge", "--option", str(option), "--mu-mean", mu_mean]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err == f"numeric error: hedging strategy honest: {what}\n"
    assert not list(tmp_path.glob("*.hedge.json"))


def test_cli_validate_partition_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"cutpoints": [0.0]}))
    assert main(["validate-partition", "--partition", str(good)]) == 0
    assert "valid" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "weights": [
                    {"kind": "rectangular", "a": "-inf", "b": 1.0},
                    {"kind": "rectangular", "a": 0.0, "b": "inf"},
                ]
            }
        )
    )
    assert main(["validate-partition", "--partition", str(bad)]) == 2
    assert "INVALID" in capsys.readouterr().out
    # a weight entry field that its kind does not define
    bad.write_text(
        json.dumps({"weights": [{"kind": "rectangular", "a": "-inf", "b": 0, "center": 3}]})
    )
    assert main(["validate-partition", "--partition", str(bad)]) == 2
    assert "weights[0]: unknown fields ['center']" in capsys.readouterr().err


def _cells(first_end, second_start):
    return {
        "weights": [
            {"kind": "rectangular", "a": "-inf", "b": first_end},
            {"kind": "rectangular", "a": second_start, "b": 100},
            {"kind": "rectangular", "a": 100, "b": "inf"},
        ]
    }


@pytest.mark.parametrize(
    "config, wrong_sum",
    [(_cells(0, 1e-6), "weights sum to 0 at t=0 "), (_cells(1e-6, 0), "weights sum to 2 at t=0 ")],
    ids=["gap", "overlap"],
)
def test_cli_narrow_gap_or_overlap_exits_2_before_any_file(tmp_path, capsys, config, wrong_sum):
    part = tmp_path / "part.json"
    part.write_text(json.dumps(config))
    assert main(["validate-partition", "--partition", str(part)]) == 2
    out = capsys.readouterr().out
    assert "INVALID" in out and wrong_sum in out
    cases, paired, ens = tmp_path / "c.csv", tmp_path / "p.csv", tmp_path / "e.csv"
    _write_cases(cases, [["c1", -1, 2], ["c2", 0, 5e-7]])
    paired.write_text("case_id,forecast_a,forecast_b,obs\nc1,-1,1,2\nc2,0,1,5e-7\n")
    ens.write_text("case_id,obs,m1,m2\nc1,2,-1,1\nc2,5e-7,0,1\n")
    spec = ["--functional", "expectile", "--alpha", "0.5"]
    runs = (["score", *spec, "--input", str(cases)], ["compare", *spec, "--input", str(paired)],
            ["crps", "--input", str(ens)])
    for argv in runs:
        assert main([*argv, "--partition", str(part), "--out", str(tmp_path / "o")]) == 2
        assert wrong_sum in capsys.readouterr().err, argv[0]
    assert not list(tmp_path.glob("o.*"))


def test_cli_extreme_cutpoints_validate_without_warnings(tmp_path, capsys):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"cutpoints": [-1e308, 1e308]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate-partition", "--partition", str(part)]) == 0
    captured = capsys.readouterr()
    assert ": valid (" in captured.out and captured.err == ""
    # the same cells with the last one starting at 1.0000001e308
    config = {"weights": [
        {"kind": "rectangular", "a": "-inf", "b": -1e308},
        {"kind": "rectangular", "a": -1e308, "b": 1e308},
        {"kind": "rectangular", "a": 1.0000001e308, "b": "inf"},
    ]}
    part.write_text(json.dumps(config))
    assert main(["validate-partition", "--partition", str(part)]) == 2
    assert "weights sum to 0 at t=1e+308 " in capsys.readouterr().out


def test_cli_ramp_longer_than_the_largest_float_exits_2(tmp_path, capsys):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"weights": [
        {"kind": "tabulated", "breakpoints": [-1e308, 1e308], "values": [1.0, 0.0]},
        {"kind": "tabulated", "breakpoints": [-1e308, 1e308], "values": [0.0, 1.0]},
    ]}))
    assert main(["validate-partition", "--partition", str(part)]) == 2
    assert "longer than the largest float" in capsys.readouterr().err


def test_cli_error_exit_codes(tmp_path, capsys):
    # unreadable input file
    assert (
        main(
            [
                "score",
                "--functional",
                "quantile",
                "--alpha",
                "0.5",
                "--input",
                str(tmp_path / "missing.csv"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        == 2
    )
    assert "error:" in capsys.readouterr().err
    # invalid level
    inp = tmp_path / "in.csv"
    _write_cases(inp, [["a", 1, 2]])
    assert (
        main(
            [
                "score",
                "--functional",
                "quantile",
                "--alpha",
                "1.5",
                "--input",
                str(inp),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        == 2
    )
    # missing required value resolved through neither flag nor config
    assert main(["score", "--functional", "quantile", "--alpha", "0.5"]) == 2
    # malformed config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["score", "--config", str(cfg)]) == 2
    # a config that is valid JSON but not an object
    cfg.write_text("[1, 2]")
    assert main(["score", "--config", str(cfg)]) == 2
    # a config that is not UTF-8
    cfg.write_bytes(b'{"functional": "\xff"}')
    assert main(["score", "--config", str(cfg)]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err
    # an input holding byte 0xff, and one with a 140,000-character case id
    base = ["score", "--functional", "quantile", "--alpha", "0.5"]
    inp.write_bytes(b"case_id,forecast,obs\na,1,2\nb,\xff,2\n")
    out = ["--input", str(inp), "--out", str(tmp_path / "x")]
    assert main(base + out) == 2
    assert "not UTF-8 text" in capsys.readouterr().err
    inp.write_text(f"case_id,forecast,obs\n{'c' * 140000},1,2\n")
    assert main(base + out) == 2
    assert ":2: field larger than" in capsys.readouterr().err
    # argparse handles unknown subcommands with its own exit
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_values_outside_the_domain_name_the_case(tmp_path, capsys):
    part = tmp_path / "part.json"
    part.write_text('{"domain": {"lower": 0, "upper": "inf"}, "cutpoints": [10]}')
    (tmp_path / "cases.csv").write_text("case_id,forecast,obs\nc000041,1,2\nc000042,-1,2\n")
    (tmp_path / "paired.csv").write_text(
        "case_id,forecast_a,forecast_b,obs\nc000041,1,2,3\nc000042,2,1,-0.5\n"
    )
    (tmp_path / "ens.csv").write_text("case_id,obs,m1,m2\nc000041,1,1,2\nc000042,3,4,-2\n")
    spec = ["--functional", "expectile", "--alpha", "0.5"]
    for argv, message in (
        (["score", *spec, "--input", "cases.csv"], "forecast -1.0"),
        (["compare", *spec, "--input", "paired.csv"], "observation -0.5"),
        (["crps", "--input", "ens.csv"], "cdf breakpoint -2.0"),
    ):
        argv = [*argv[:-1], str(tmp_path / argv[-1]), "--partition", str(part)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: case c000042: {message} lies outside the domain [0.0, inf)\n"
        )
    assert not list(tmp_path.glob("out*"))


def test_cli_scores_that_are_not_finite_exit_3_before_any_file(tmp_path, capsys):
    # (1e200 - 0)**2 overflows; so does the CRPS segment from -1.7e308 to 1.7e308
    (tmp_path / "cases.csv").write_text("case_id,forecast,obs\nc0,1,2\nc1,1e200,0\n")
    (tmp_path / "paired.csv").write_text(
        "case_id,forecast_a,forecast_b,obs\nc0,1,2,3\nc1,1,1e200,0\n"
    )
    (tmp_path / "ens.csv").write_text(
        "case_id,obs,m1,m2\nc0,1,0,2\nc1,-1.7e308,1.7e308,1.7e308\n"
    )
    # x - y itself overflows
    (tmp_path / "far.csv").write_text("case_id,forecast,obs\nc0,1,2\nc1,1e308,-1e308\n")
    part = tmp_path / "part.json"
    part.write_text('{"cutpoints": [0]}')
    arctan = tmp_path / "arctan.json"
    arctan.write_text(json.dumps({"weights": [
        {"kind": "arctan_lower", "center": 0}, {"kind": "arctan_upper", "center": 0},
    ]}))
    spec = ["--functional", "expectile", "--alpha", "0.5"]
    for argv in (
        ["score", *spec, "--input", "cases.csv"],
        ["score", *spec, "--partition", str(part), "--input", "cases.csv"],
        ["compare", *spec, "--input", "paired.csv"],
        ["compare", *spec, "--ci", "bootstrap", "--partition", str(part),
         "--input", "paired.csv"],
        ["crps", "--input", "ens.csv"],
        ["crps", "--partition", str(part), "--input", "ens.csv"],
        ["score", *spec, "--partition", str(arctan), "--input", "cases.csv"],
        ["score", *spec, "--partition", str(arctan), "--input", "far.csv"],
        ["score", "--functional", "quantile", "--alpha", "0.3",
         "--partition", str(arctan), "--input", "far.csv"],
        ["compare", *spec, "--partition", str(arctan), "--input", "paired.csv"],
        ["crps", "--partition", str(arctan), "--input", "ens.csv"],
    ):
        argv = [*argv[:-1], str(tmp_path / argv[-1]), "--out", str(tmp_path / "out")]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("numeric error: case c1: ") and "not a finite score" in err
        assert not list(tmp_path.glob("out*")), argv


def test_cli_arctan_span_past_the_panel_limit_exits_3_naming_the_case(tmp_path, capsys):
    # a finite score whose arctan components span 1e100 from the centre
    # need more quadrature panels than the routine allows
    (tmp_path / "cases.csv").write_text("case_id,forecast,obs\nc0,1,2\nc1,1e100,0\n")
    arctan = tmp_path / "arctan.json"
    arctan.write_text(json.dumps({"weights": [
        {"kind": "arctan_lower", "center": 0}, {"kind": "arctan_upper", "center": 0},
    ]}))
    argv = ["score", "--functional", "quantile", "--alpha", "0.3", "--partition",
            str(arctan), "--input", str(tmp_path / "cases.csv"), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: case c1: quadrature of element "), err
    assert not list(tmp_path.glob("out*"))


def test_cli_bad_parameters_exit_2_before_any_file(tmp_path, capsys):
    # an infinite cap, and a cap given to a quantile, from a flag or the config
    (tmp_path / "cases.csv").write_text("case_id,forecast,obs\nc0,1,2\nc1,3,2.5\n")
    (tmp_path / "paired.csv").write_text(
        "case_id,forecast_a,forecast_b,obs\nc0,1,2,3\nc1,3,1,0\nc2,0,1,2\n"
    )
    part = tmp_path / "part.json"
    part.write_text('{"cutpoints": [0]}')
    huber = {"functional": "huber_mean", "nu": "inf"}
    quantile = {"functional": "quantile", "alpha": "0.5", "nu": "3"}
    for command, params, extra in (
        ("score", huber, {"input": "cases.csv"}),
        ("score", huber, {"input": "cases.csv", "partition": str(part)}),
        ("compare", huber, {"input": "paired.csv"}),
        ("murphy", quantile, {"input": "paired.csv"}),
    ):
        extra = dict(extra, input=str(tmp_path / extra["input"]))
        cfg = {**params, **extra, "out": str(tmp_path / "out")}
        argv = [command] + [a for k, v in cfg.items() for a in (f"--{k}", v)]
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
        assert _run_with_config(tmp_path, command, cfg) == 2, cfg
        assert capsys.readouterr().err.startswith("error: "), cfg
        assert not list(tmp_path.glob("out*")), argv


def test_cli_overflow_prints_only_the_numeric_error(tmp_path):
    # numpy's overflow warnings stay off stderr; the named case is the message
    (tmp_path / "cases.csv").write_text("case_id,forecast,obs\nc1,1e200,0\n")
    (tmp_path / "ens.csv").write_text("case_id,obs,m1,m2\nc9,-1.7e308,1.7e308,1.7e308\n")
    part = tmp_path / "part.json"
    part.write_text('{"cutpoints": [0]}')
    src = str(Path(veriscore.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for argv, case in (
        (["score", "--functional", "expectile", "--alpha", "0.5", "--input", "cases.csv"], "c1"),
        (["crps", "--input", "ens.csv"], "c9"),
        (["crps", "--partition", str(part), "--input", "ens.csv"], "c9"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "veriscore.cli", *argv, "--out", "out"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 3, argv
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"numeric error: case {case}: "), (
            proc.stderr
        )
        assert not list(tmp_path.glob("out*")), argv


def test_cli_negative_grid_reads_alike_spaced_joined_and_from_config(tmp_path):
    assert main(["synth", "--n", "300", "--seed", "2", "--out", str(tmp_path / "d")]) == 0
    base = ["murphy", "--functional", "quantile", "--alpha", "0.3",
            "--input", str(tmp_path / "d.cases.csv")]
    suffixes = ("murphy.csv", "murphy.json")
    assert main([*base, "--grid", "-5,40,17", "--out", str(tmp_path / "s")]) == 0
    expected = _digests(tmp_path / "s", suffixes)
    assert main([*base, "--grid=-5,40,17", "--out", str(tmp_path / "j")]) == 0
    assert _digests(tmp_path / "j", suffixes) == expected
    cfg = {"functional": "quantile", "alpha": 0.3, "grid": "-5,40,17",
           "input": str(tmp_path / "d.cases.csv"), "out": str(tmp_path / "c")}
    assert _run_with_config(tmp_path, "murphy", cfg) == 0
    assert _digests(tmp_path / "c", suffixes) == expected
    meta = json.loads((tmp_path / "s.murphy.json").read_text())
    assert meta["grid"] == {"lo": -5.0, "hi": 40.0, "n": 17}


def test_cli_murphy_labels_with_named_inputs_exit_2(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_cases(a, [["c0", 1.0, 2.0], ["c1", 3.0, 2.5]])
    _write_cases(b, [["c0", 1.5, 2.0], ["c1", 2.0, 2.5]])
    out = str(tmp_path / "m")
    argv = ["murphy", "--functional", "quantile", "--alpha", "0.5",
            "--inputs", str(a), str(b), "--out", out]
    assert main([*argv, "--labels", "x,y"]) == 2
    assert "--labels names the systems of --input" in capsys.readouterr().err
    cfg = {"functional": "quantile", "alpha": 0.5, "inputs": [str(a), str(b)],
           "labels": "x,y", "out": out}
    assert _run_with_config(tmp_path, "murphy", cfg) == 2
    assert "--labels names the systems of --input" in capsys.readouterr().err
    assert not list(tmp_path.glob("m.*"))
    assert main(argv) == 0


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    paired = tmp_path / "paired.csv"
    paired.write_text("case_id,forecast_a,forecast_b,obs\nc1,1,2,3\nc2,2,1,0.5\nc3,0,1,2\n")
    spec = ["--functional", "expectile", "--alpha", "0.5"]
    for argv in (
        ["compare", *spec, "--input", str(paired), "--ci", "bootstrap", "--seed", "-1"],
        ["synth", "--n", "10", "--seed", "-3"],
        ["hedge", "--option", "1", "--seed", "-3"],
    ):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
    assert not list(tmp_path.glob("out*"))


def test_only_io_opens_files_or_imports_csv_and_json():
    # file formats are decided in veriscore.io alone
    hits = []
    modules = sorted(Path(veriscore.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "open":
                    hits.append(f"{path.name}:{node.lineno}: open(")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                for name in names:
                    if name.split(".")[0] in ("csv", "json"):
                        hits.append(f"{path.name}:{node.lineno}: import {name}")
    assert hits == []


def test_no_module_imports_scipy():
    # the runtime is numpy only; scipy serves the tests as an independent oracle
    hits = []
    for path in sorted(Path(veriscore.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "scipy":
                    hits.append(f"{path.name}:{node.lineno}: import {name}")
    assert hits == []


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, veriscore.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    src = str(Path(veriscore.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # no moment is integrated by a rule of its own
    code = (
        "import sys, veriscore.cli; "
        "print([m for m in sys.modules if m.startswith('numpy.polynomial')])"
    )
    src = str(Path(veriscore.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_functional_value_loads_no_scipy():
    # functional values are exact integer arithmetic, with no scipy solver, and
    # the hedging tail means take the normal tail from math.erfc
    code = (
        "import sys, veriscore as v; "
        "d = v.DiscreteDistribution([0.0, 1.0, 5.0], [0.2, 0.5, 0.3]); "
        "[v.functional_value(s, d) for s in "
        "(v.quantile_score(0.3), v.expectile_score(0.3), v.huber_loss(1.0))]; "
        "[v.simulate_hedging(o, n=500) for o in range(1, 6)]; "
        "v.lognormal_tail_mean(1.5, 0.4, 20.0); "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    src = str(Path(veriscore.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_queue_or_futures():
    # the bootstrap's draw thread uses only threading, which is loaded anyway
    code = (
        "import sys, veriscore.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('queue', 'concurrent')))"
    )
    src = str(Path(veriscore.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_only_the_program_freezes_the_start_up_objects(tmp_path):
    # importing veriscore and calling main(argv) in process freeze nothing
    part = tmp_path / "part.json"
    part.write_text('{"cutpoints": [0]}')
    code = (
        "import gc, sys; import veriscore; a = gc.get_freeze_count(); "
        "import veriscore.cli; b = gc.get_freeze_count(); "
        f"code = veriscore.cli.main(['validate-partition', '--partition', {str(part)!r}]); "
        "print(a, b, gc.get_freeze_count(), code)"
    )
    src = str(Path(veriscore.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split()[-4:] == ["0", "0", "0", "0"]
    # run as a program, it freezes them before the subcommand runs
    code = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
        f"sys.argv = ['veriscore', 'validate-partition', '--partition', {str(part)!r}]; "
        "runpy.run_module('veriscore.cli', run_name='__main__')"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0 and out.stdout.splitlines()[-1] == "True", out.stderr


def test_gc_freeze_is_called_in_one_place():
    hits = []
    for path in sorted(Path(veriscore.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "freeze":
                hits.append(f"{path.name}:{ast.unparse(node)}")
    assert hits == ["cli.py:gc.freeze()"]


def test_the_program_exits_2_and_3_with_its_message_and_no_file(tmp_path):
    (tmp_path / "bad.csv").write_text("case_id,forecast,obs\nc1,x,0\n")
    (tmp_path / "big.csv").write_text("case_id,forecast,obs\nc1,1e200,0\n")
    src = str(Path(veriscore.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    spec = ["--functional", "expectile", "--alpha", "0.5"]
    for name, code, message in (
        ("bad.csv", 2, "error: bad.csv:2: forecast value 'x' is not a number"),
        ("big.csv", 3, "numeric error: case c1: "),
    ):
        argv = ["score", *spec, "--input", name, "--out", "out"]
        proc = subprocess.run(
            [sys.executable, "-m", "veriscore.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(message) and len(proc.stderr.splitlines()) == 1
        assert not list(tmp_path.glob("out*"))


def test_cli_hedge_at_the_largest_threshold_scores_zero(tmp_path, capsys):
    # the upper region starts beyond every event, so every component is 0
    out = tmp_path / "h"
    assert main(["hedge", "--option", "5", "--threshold", "1e308", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "h.hedge.json").read_text())
    rows = [report["honest"], *report["strategies"]]
    assert [(r["n_assessed"], r["mean_score"], r["gain"]) for r in rows] == [(8000, 0.0, 0.0)] * 4


def test_cli_stdout_numbers_keep_lines_short(tmp_path, capsys, monkeypatch):
    # two decimals below 1e15 in magnitude, six significant digits beyond
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.csv").write_text("case_id,forecast,obs\nc1,-1e308,0\nc2,1e308,1\n")
    runs = [
        ["murphy", "--functional", f, "--alpha", "0.5", "--inputs", "big.csv", "--grid", "5"]
        for f in ("quantile", "expectile")
    ]
    runs.append(["hedge", "--option", "5", "--threshold", "1e308"])
    for argv in runs:
        assert main([*argv, "--out", "o"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and max(map(len, lines)) <= 120, lines
    assert "events: 8000, threshold: 1e+308" in lines
