import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwlab.curves import (
    CurveTable,
    _block_length,
    format_number,
    to_csv_text,
    write_csv,
)
from cdwlab.errors import DomainError


def test_format_number_basic():
    assert format_number(1.0) == "1"
    assert format_number(0.5) == "0.5"
    assert format_number(None) == "nan"
    assert format_number(math.nan) == "nan"
    assert format_number(math.inf) == "inf"
    assert format_number(-math.inf) == "-inf"
    # 15 significant digits survive the round trip
    x = 0.004538416002647
    assert float(format_number(x)) == pytest.approx(x, rel=1e-14)


def test_format_number_sig_digits():
    s = format_number(math.pi)
    assert len(s.replace(".", "").replace("-", "").lstrip("0")) >= 12


def test_table_arity_checked():
    t = CurveTable(["a", "b"], [[1.0, 2.0]])
    assert len(t) == 1
    for rows in ([[1.0]], [[1.0, 2.0, 3.0]], [[1.0, 2.0], [1.0]]):
        with pytest.raises(DomainError):
            CurveTable(["a", "b"], rows)
    empty = CurveTable(["a", "b"], [])
    assert len(empty) == 0
    assert to_csv_text(empty) == "a,b\n"


def test_to_csv_text():
    t = CurveTable(["x", "y"], [[1.0, None], [2.5, -3.0]])
    assert math.isnan(t.rows[0, 1])
    text = to_csv_text(t)
    assert text == "x,y\n1,nan\n2.5,-3\n"
    # newline endings only, no carriage returns
    assert "\r" not in text


def test_to_csv_text_matches_format_number():
    # one format call for the whole table writes what format_number
    # writes per value
    rows = [(None, math.nan, -math.nan, math.inf),
            (-math.inf, -0.0, 5e-324, 2.2250738585072014e-308 / 3),
            (np.int64(7), np.float64(0.1), np.float32(0.1), np.int32(-3)),
            (np.float64(-np.inf), 1, True, 10 ** 20),
            (1e300, -1.5e-310, 123456789012345678.0, 0.1 + 0.2),
            (np.float64(-0.0), np.float64(math.nan), None, -0.0)]
    table = CurveTable(["a", "b", "c", "d"], rows)
    expect = "".join(",".join(format_number(v) for v in row) + "\n"
                     for row in rows)
    assert to_csv_text(table) == "a,b,c,d\n" + expect
    # the cells that need a sign or a missing value kept
    assert expect.startswith("nan,nan,nan,inf\n-inf,-0,")
    assert expect.endswith("\n-0,nan,nan,-0\n")


def test_to_csv_text_zero_rows_is_header_alone():
    assert to_csv_text(CurveTable(["x", "y"])) == "x,y\n"
    assert to_csv_text(CurveTable(["x"], [])) == "x\n"


def test_to_csv_text_header_percent_verbatim():
    # the header is not part of the format string
    table = CurveTable(["a%s", "%%", "%.15g%"], [(1.0, 2.0, 3.0)])
    assert to_csv_text(table) == "a%s,%%,%.15g%\n1,2,3\n"


_NAME = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1,
                max_size=8)
_CELL = st.none() | st.floats()


@st.composite
def _tables(draw):
    columns = draw(st.lists(_NAME, min_size=1, max_size=5))
    rows = draw(st.lists(st.lists(_CELL, min_size=len(columns),
                                  max_size=len(columns)), max_size=20))
    return CurveTable(columns, rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(table=_tables())
def test_csv_round_trip(table):
    # every cell is written as format_number writes it and reads back
    # as its 15-significant-digit rounding; a missing cell and nan both
    # read back as nan
    text = to_csv_text(table)
    assert text.split("\n")[1:-1] == [
        ",".join(format_number(v) for v in row) for row in table.rows]
    header, *rows = csv.reader(io.StringIO(text))
    assert tuple(header) == table.columns
    assert len(rows) == len(table)
    for row, cells in zip(table.rows, rows):
        assert len(cells) == len(row)
        for v, cell in zip(row, cells):
            got = float(cell)
            if v is None or math.isnan(v):
                assert math.isnan(got)
            else:
                assert got == float("%.15g" % v)


def _value_by_value(table):
    return "".join(",".join(format_number(v) for v in row) + "\n"
                   for row in table.rows.tolist())


def _long(keys, sites, *rest):
    """Long-format rows: every key with every site, then the columns of
    rest in row order."""
    rows = [(k, s) for k in keys for s in sites]
    return [row + tuple(col[i] for col in rest)
            for i, row in enumerate(rows)]


_NEG_NAN = -math.nan
_LONG_TABLES = [
    # -0.0 next to 0.0 in both the key and the site column
    (_long([0.0, -0.0, 0.0], [-0.0, 0.0], range(6)), 2),
    # non-finite keys and sites
    (_long([math.nan, math.inf, -math.inf, _NEG_NAN],
           [math.inf, math.nan, -math.inf], range(12), [0.1] * 12), 3),
    # a single block
    (_long([0.25], [3.0, 1.0, 2.0], [1e-300, 5e-324, -1.5]), 3),
    # two columns: nothing but keys and sites
    (_long([0.1, 0.2, 0.30000000000000004], [0.0, 1.0]), 2),
    # the default pendulum-kink layout in small
    (_long([k * 0.2 for k in range(4)], [0.0, 1.0, 2.0],
           [math.sin(i) for i in range(12)], [math.cos(i) for i in range(12)]),
     3),
]

_FALLBACKS = [
    # the first run is 3 rows, the second 1: not equal blocks, although
    # the sites repeat with period 2
    [(1.0, 5.0, 0.3), (1.0, 6.0, 0.4), (1.0, 5.0, 0.5), (2.0, 6.0, 0.6)],
    # equal runs whose second column differs in one block
    [(1.0, 5.0, 0.3), (1.0, 6.0, 0.4), (2.0, 5.0, 0.5), (2.0, -6.0, 0.6)],
    # and in the sign of a zero only
    [(1.0, 0.0, 0.3), (1.0, 6.0, 0.4), (2.0, -0.0, 0.5), (2.0, 6.0, 0.6)],
    # a key that changes inside a later block
    [(1.0, 5.0), (1.0, 6.0), (2.0, 5.0), (3.0, 6.0)],
    # runs of length 1
    [(1.0, 5.0, 0.3), (2.0, 5.0, 0.4), (3.0, 5.0, 0.5)],
    # one column
    [(1.0,), (1.0,), (2.0,), (2.0,)],
    # zero rows
    [],
]


@pytest.mark.parametrize("rows, length", _LONG_TABLES)
def test_long_format_table_matches_format_number(rows, length):
    # each key and each site formatted once writes what format_number
    # writes per value
    columns = ["k", "s", "a", "b"][:len(rows[0])]
    table = CurveTable(columns, rows)
    assert _block_length(table.rows) == length
    assert to_csv_text(table) == (",".join(columns) + "\n"
                                  + _value_by_value(table))


@pytest.mark.parametrize("rows", _FALLBACKS)
def test_near_long_format_tables_fall_back(rows):
    arity = len(rows[0]) if rows else 2
    table = CurveTable(["c%d" % i for i in range(arity)], rows)
    assert _block_length(table.rows) == 0
    assert to_csv_text(table).split("\n", 1)[1] == _value_by_value(table)


_POOL = st.sampled_from([0.0, -0.0, 1.0, 0.1, -2.5, 1e-300, math.inf,
                         -math.inf, math.nan, _NEG_NAN])


@st.composite
def _near_long_tables(draw):
    # keys and sites from a small pool, so equal runs and repeated
    # blocks are common; a cell of the first two columns may be redrawn
    keys = draw(st.lists(_POOL, min_size=1, max_size=4))
    sites = draw(st.lists(_POOL, min_size=1, max_size=4))
    arity = draw(st.integers(2, 4))
    rows = [[k, s] + [draw(_CELL) for _ in range(arity - 2)]
            for k in keys for s in sites]
    if draw(st.booleans()):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, 1))] = draw(_POOL)
    return CurveTable(["c%d" % i for i in range(arity)], rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(table=_near_long_tables())
def test_near_long_tables_match_format_number(table):
    assert to_csv_text(table).split("\n", 1)[1] == _value_by_value(table)


def test_write_csv_atomic(tmp_path):
    t = CurveTable(["x"], [[1.0]])
    out = tmp_path / "sub" / "t.csv"
    os.makedirs(out.parent)
    write_csv(t, str(out))
    data = out.read_bytes()
    assert data == b"x\n1\n"
    # overwrite in place leaves no temporaries behind
    write_csv(t, str(out))
    assert sorted(os.listdir(out.parent)) == ["t.csv"]


def test_write_csv_byte_identical(tmp_path):
    t = CurveTable(["a", "b"], [[k * 0.1, math.sin(k)] for k in range(20)])
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    write_csv(t, str(p1))
    write_csv(t, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("columns", [(), ""], ids=["tuple", "string"])
def test_table_without_columns_is_domain_error(columns):
    with pytest.raises(DomainError, match="at least one column"):
        CurveTable(columns)
