import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwlab.curves import CurveTable, format_number, to_csv_text, write_csv
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
