"""Tabular results and CSV emission.

Every artifact the lab produces is a 1-D or 2-D curve, so a single
column-named table type backs all of them.  Numbers are written with 15
significant digits and a plain '.' decimal separator; rows are joined
with '\\n'.  Writes go through a temp file in the target directory and an
atomic rename, so an interrupted run never leaves a truncated artifact.
"""

import os
import tempfile

from .errors import DomainError


class CurveTable:
    """Ordered rows of numeric values under a fixed column header."""

    def __init__(self, columns, rows=None):
        self.columns = tuple(str(c) for c in columns)
        if not self.columns:
            raise DomainError("table needs at least one column")
        self.rows = []
        if rows is not None:
            for row in rows:
                self.append(row)

    def append(self, row):
        row = tuple(row)
        if len(row) != len(self.columns):
            raise DomainError(
                "row arity %d does not match header arity %d"
                % (len(row), len(self.columns))
            )
        self.rows.append(row)

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
    (one format call per row)."""
    fmt = ",".join(["%.15g"] * len(table.columns))
    nan = float("nan")
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(fmt % tuple([nan if v is None else v for v in row]))
    return "\n".join(lines) + "\n"


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
