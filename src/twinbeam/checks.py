"""The program's file boundary: checked input, one form for each output.

Each config field states its range once, in its class's
``__post_init__``, through :func:`check_field`.  The check rejects NaN,
infinities and integers too large for a float, bools where numbers are
expected and ``10.0`` where an integer is expected, so a JSON document
cannot slip a value past it.  Both CSV inputs, event tables and HOM
scans, go through :func:`read_csv_chunks`, which holds every row to its
column types and every float to being finite, and names the offending
line; :func:`read_csv_rows` is its concatenation.  Every result leaves
through :func:`write_json` (2-space indent, sorted keys, final newline)
or :func:`write_csv` (the ``repr`` of each value); only the fixed-point
event tables have their own writer.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import re
import sys
import warnings

import numpy as np

__all__ = [
    "check_field", "read_csv_rows", "read_csv_chunks", "csv_row_error", "write_json", "write_csv",
]


def check_field(
    obj,
    name: str,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    integer: bool = False,
    positive: bool = False,
    length=None,
    optional: bool = False,
) -> None:
    """Raise ``ValueError`` unless field ``name`` of ``obj`` is finite and in range.

    ``obj`` is a dataclass, or a dict whose key ``name`` is checked (a
    missing key reads as ``None``).  The range is ``[lo, hi]``, or
    ``lo < value`` when ``positive``.  With ``integer`` the value must be an
    integer (not a bool, not ``10.0``).  With ``length`` it must be a list or
    tuple of that many such values (``...``: one or more).  ``optional``
    also admits ``None``.
    """
    value = obj.get(name) if isinstance(obj, dict) else getattr(obj, name)
    if optional and value is None:
        return
    kind = numbers.Integral if integer else numbers.Real
    items = (value,) if length is None else value
    shaped = length is None or (
        isinstance(value, (tuple, list)) and len(value) > 0 and length in (..., len(value))
    )
    if shaped and all(
        isinstance(v, kind)
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max  # False for NaN, infinities and huge ints
        and lo <= v <= hi
        and not (positive and v == lo)
        for v in items
    ):
        return
    what = "an integer" if integer else "a finite number"
    if hi < math.inf:
        what += f" in [{lo}, {hi}]"
    elif lo > -math.inf:
        what += f" {'>' if positive else '>='} {lo}"
    if length is not None:
        count = "one or more" if length is ... else str(length)
        what = f"a list of {count} values, each {what}"
    if optional:
        what = f"null or {what}"
    shown = list(value) if isinstance(value, tuple) else value
    raise ValueError(f"{name} must be {what}, got {shown!r}")


# Rows read per loadtxt call by read_csv_chunks.
_CHUNK_ROWS = 1 << 11
# loadtxt counts data rows from 0 in conversion errors and from 1 in
# column-count errors; blank lines are skipped in both counts.
_LOADTXT_CONVERT = re.compile(r"(could not convert .*) at row (\d+), column (\d+)\.$")
_LOADTXT_COLUMNS = re.compile(r"requires (\d+) columns but (\d+) were found at row (\d+)")


def csv_row_error(path, row: int, message: str) -> ValueError:
    """A ``ValueError`` that names the ``path:line:`` of data row ``row``.

    ``row`` counts from 0 the non-blank lines after the header, as the
    rows of :func:`read_csv_rows` do.
    """
    with open(path) as fh:
        fh.readline()
        lines = (n for n, line in enumerate(fh, start=2) if line != "\n")
        lineno = next(itertools.islice(lines, row, None), "?")
    return ValueError(f"{path}:{lineno}: {message}")


def read_csv_rows(path, header: str, dtype) -> np.ndarray:
    """The rows of the CSV file at ``path`` as one structured array.

    The concatenation of :func:`read_csv_chunks`, with its checks and messages.
    """
    return np.concatenate(list(read_csv_chunks(path, header, dtype)))


def read_csv_chunks(path, header: str, dtype):
    """Yield the rows of the CSV file at ``path`` as structured arrays of at most ``_CHUNK_ROWS``.

    The first line must read ``header`` (an empty file holds no rows).
    Every further line is one row of ``dtype``'s fields, comma-separated;
    blank lines are skipped and ``#`` starts no comment.  Raises
    ``ValueError`` naming ``path:line:`` at the first row that does not
    parse or holds a non-finite float.  At least one chunk is yielded.
    """
    with open(path) as fh:
        first = fh.readline()
        if first and first.strip() != header:
            raise ValueError(f"{path}:1: unexpected header {first.strip()!r}")
        done = 0  # data rows read before this chunk
        while True:
            try:
                with warnings.catch_warnings():
                    # A header-only file is a valid empty table, and blank
                    # lines count towards no chunk's rows.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    warnings.filterwarnings("ignore", "Input line .* contained no data")
                    rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                                      max_rows=_CHUNK_ROWS)
            except ValueError as exc:
                raise _loadtxt_error(path, str(exc), done) from None
            finite = np.ones(len(rows), dtype=bool)
            for name in rows.dtype.names:
                if rows.dtype[name].base.kind == "f":
                    values = rows[name]
                    finite &= np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
            if not finite.all():
                raise csv_row_error(path, done + int(np.argmin(finite)), "non-finite value")
            yield rows
            if len(rows) < _CHUNK_ROWS:
                return
            done += len(rows)


def _loadtxt_error(path, message: str, done: int) -> ValueError:
    """The ``path:line:`` error of a loadtxt ``message`` on a chunk read after ``done`` rows."""
    if found := _LOADTXT_COLUMNS.search(message):
        expected, got, row = found.groups()
        return csv_row_error(path, done + int(row) - 1, f"expected {expected} fields, got {got}")
    if found := _LOADTXT_CONVERT.search(message):
        what, row, column = found.groups()
        return csv_row_error(path, done + int(row), f"{what} in column {column}")
    return ValueError(f"{path}: {message}")


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON: 2-space indent, sorted keys, final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header: str, *columns) -> None:
    """Write ``header``, then one row per entry of the equal-length ``columns``.

    Each value is the ``repr`` of its Python scalar: never ``np.float64(...)``.
    """
    rows = zip(*(np.asarray(column).tolist() for column in columns), strict=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
