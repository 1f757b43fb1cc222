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


def to_csv_text(table):
    """The table as CSV text, each value as format_number renders it
    (one format call for the whole table)."""
    line = ",".join(["%.15g"] * len(table.columns)) + "\n"
    # the header stays out of the format string: a name may hold a '%'
    return ",".join(table.columns) + "\n" + (line * len(table)) % tuple(
        table.rows.ravel().tolist())


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
