"""Tabular results and CSV emission.

Every artifact the lab produces is a 1-D or 2-D curve, so a single
column-named table type backs all of them: one float64 (rows, columns)
array, in which a missing cell is NaN.  Numbers are written with 15
significant digits and a plain '.' decimal separator; rows are joined
with '\\n'.  Writes go through a temp file in the target directory and an
atomic rename, so an interrupted run never leaves a truncated artifact.
"""

import os
import tempfile

import numpy as np

from .errors import DomainError


class CurveTable:
    """Numeric rows under a fixed column header, held as one float64
    (rows, columns) array ``rows`` in which a missing cell (None in the
    rows given) is NaN."""

    def __init__(self, columns, rows=()):
        self.columns = tuple(str(c) for c in columns)
        if not self.columns:
            raise DomainError("table needs at least one column")
        arity = len(self.columns)
        try:
            self.rows = np.array(rows, dtype=float)
        except ValueError as err:
            raise DomainError("rows must be numeric and of header arity "
                              "%d: %s" % (arity, err)) from None
        if self.rows.shape == (0,):
            self.rows = self.rows.reshape(0, arity)
        if self.rows.ndim != 2 or self.rows.shape[1] != arity:
            raise DomainError("rows of shape %s do not match header arity %d"
                              % (self.rows.shape, arity))

    def __len__(self):
        return len(self.rows)


def format_number(x):
    """Render one value with 15 significant digits.

    None (a missing point) and NaN both render as 'nan' so failed rows
    stay visible in the artifact without breaking its shape.
    """
    return "nan" if x is None else "%.15g" % float(x)


def _block_length(rows):
    """L >= 2 when the first column is constant on each of the n/L
    blocks of L rows and the second repeats its first block's L values
    in every block (a long-format table), else 0.  Values are compared
    by their bits, so -0.0 and 0.0 are told apart."""
    n, arity = rows.shape
    if n < 2 or arity < 2:
        return 0
    bits = rows.view(np.int64)
    length = int(np.argmax(bits[:, 0] != bits[0, 0])) or n
    if length < 2 or n % length:
        return 0
    block = bits[:, :2].reshape(n // length, length, 2)
    if ((block[:, :, 0] == block[:, :1, 0]).all()
            and (block[:, :, 1] == block[0, :, 1]).all()):
        return length
    return 0


def to_csv_text(table):
    """The table as CSV text, each value as format_number renders it.

    A table is one format call over its values.  A long-format table
    (see _block_length) formats each of its first column's keys and its
    second column's L values once: one L-line template, which holds the
    second column's text and a format for the other columns, is written
    out once per key, and one format call over the other columns'
    values fills them in."""
    rows = table.rows
    # the header stays out of the format string: a name may hold a '%'
    head = ",".join(table.columns) + "\n"
    length = _block_length(rows)
    if not length:
        line = ",".join(["%.15g"] * len(table.columns)) + "\n"
        return head + (line * len(table)) % tuple(rows.ravel().tolist())
    # "%.15g" text holds no '%' and no NUL, the key's placeholder
    rest = ",%.15g" * (len(table.columns) - 2) + "\n"
    block = "".join(["\0,%.15g" % v + rest for v in rows[:length, 1].tolist()])
    keys = ["%.15g" % v for v in rows[::length, 0].tolist()]
    return head + "".join([block.replace("\0", key) for key in keys]) % tuple(
        rows[:, 2:].ravel().tolist())


def write_csv(table, path):
    """Atomically write ``table`` to ``path`` (temp file + rename)."""
    text = to_csv_text(table)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
