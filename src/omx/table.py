"""The one table codec: named, equal-length columns as CSV or JSON.

CSV is a header row, then one ``\\n``-terminated row per entry, written
``CHUNK_ROWS`` rows at a time. A cell is ``str(int)``, ``repr(float)`` (so
floats round-trip exactly), ``true``/``false`` or the string itself. It is
read back by numpy's C parser in one call; ``csv`` scans a file again only to
name the line of a fault. JSON is one indented object mapping each name to its
column as a list, written from the same cells (a string is JSON-quoted); its
bytes are those of ``json.dumps(..., indent=2)``. Each file layout lives next
to its type (``pulsed.click_columns``, ``spectra.trace_columns``, ...).
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from contextlib import nullcontext

import numpy as np

__all__ = ["CHUNK_ROWS", "format_cell", "write_table", "write_json", "read_table"]

CHUNK_ROWS = 16384


def _cells(values: np.ndarray) -> list:
    kind = values.dtype.kind
    if kind == "f":
        if values.itemsize == 8:
            # a column that repeats (a grid axis) formats each distinct value
            # once; the bit pattern keeps -0.0 apart from 0.0
            bits, index = np.unique(values.view(np.int64), return_inverse=True)
            if 2 * bits.size < values.size:
                distinct = np.array(list(map(repr, bits.view(np.float64).tolist())), object)
                return distinct[index].tolist()
        return list(map(repr, values.tolist()))
    if kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    return list(map(str, values.tolist()))


def format_cell(value) -> str:
    """One scalar as a table cell."""
    return _cells(np.asarray([value]))[0]


def _open(out):
    return nullcontext(sys.stdout) if out is None else open(out, "w", newline="")


def write_json(payload: dict, out=None) -> None:
    """Write ``payload`` as indented JSON to the path ``out`` (stdout if None).

    A non-finite float has no JSON form (RFC 8259): it raises
    ``ArithmeticError`` and nothing is written.
    """
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"non-finite result, not written as JSON ({exc})") from None
    with _open(out) as fh:
        fh.write(text + "\n")


def write_table(columns: dict, out=None, fmt: str = "csv") -> None:
    """Write equal-length named columns as "csv" or "json" to ``out`` (stdout if None)."""
    cols = {name: np.asarray(col) for name, col in columns.items()}
    if any(c.ndim != 1 for c in cols.values()) or len({c.size for c in cols.values()}) > 1:
        raise ValueError("table columns must be 1-d and of equal length")
    if fmt == "json":
        _write_json_columns(cols, out)
        return
    n_rows = next(iter(cols.values())).size if cols else 0
    with _open(out) as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            cells = [_cells(c[start:start + CHUNK_ROWS]) for c in cols.values()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json_columns(cols: dict, out) -> None:
    # json writes a finite float with float.__repr__ and an int with int.__repr__,
    # as _cells does; indent=2 would run json's pure-Python encoder instead
    for name, c in cols.items():
        if c.dtype.kind == "f" and not np.isfinite(c).all():
            raise ArithmeticError(f"non-finite result, not written as JSON "
                                  f"(column {name!r} has a non-finite value)")
    with _open(out) as fh:
        fh.write("{")
        for k, (name, c) in enumerate(cols.items()):
            fh.write(("," if k else "") + "\n  " + json.dumps(name) + ": [")
            cells = _cells if c.dtype.kind in "biuf" else _json_strings
            for start in range(0, c.size, CHUNK_ROWS):
                fh.write(("," if start else "") + "\n    "
                         + ",\n    ".join(cells(c[start:start + CHUNK_ROWS])))
            fh.write("\n  ]" if c.size else "]")
        fh.write("\n}\n" if cols else "}\n")


def _json_strings(values: np.ndarray) -> list:
    return list(map(json.dumps, values.tolist()))


def read_table(path, header=None, types=None) -> dict:
    """Columns of a CSV table as numpy arrays, keyed by header name.

    ``header`` is the header required (any if None). ``types`` maps a name to
    ``int`` (an int64 column) or to a tuple of labels (int64 indices into it);
    other columns are float64. After the header is checked, numpy's C parser
    reads every row in one call, skipping blank lines. If it rejects a row, or
    a float cell is not finite or a label unknown, a ``csv`` scan of the file
    finds the first fault to raise ``ValueError("path:line: ...")``; if that
    scan finds none (a quoted number, ``1_000``), ``"path: cannot parse table"``.
    """
    types = types or {}
    with open(path, newline="") as fh:
        head = next(csv.reader(fh), None)
    if not head:
        raise ValueError(f"{path}:1: empty table, expected a header row")
    if header is not None and head != list(header):
        raise ValueError(f"{path}:1: expected header {','.join(header)!r}, "
                         f"got {','.join(head)!r}")
    kinds = [types.get(name, float) for name in head]
    # fields by position (a name may repeat); a label field is latin-1 bytes
    # (a quarter of the memory of str), one longer than any label so that no
    # longer cell is cut down to a label
    dtype = [(str(i), "i8" if kind is int else "f8" if kind is float
              else f"S{max(map(len, kind)) + 1}") for i, kind in enumerate(kinds)]
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, dtype, delimiter=",", skiprows=1, comments=None, ndmin=1)
        return {name: _column(rows[str(i)], kind)
                for i, (name, kind) in enumerate(zip(head, kinds))}
    except ValueError:
        pass
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row and len(row) != len(head):
                raise ValueError(f"{path}:{reader.line_num}: {len(row)} cells, "
                                 f"the header has {len(head)}")
            for name, kind, cell in zip(head, kinds, row):
                try:
                    value = kind.index(cell) if isinstance(kind, tuple) else kind(cell)
                    finite = math.isfinite(np.int64(value) if kind is int else value)
                except (ValueError, OverflowError):
                    raise ValueError(f"{path}:{reader.line_num}: cannot read {name} "
                                     f"value {cell!r}") from None
                if not finite:
                    raise ValueError(f"{path}:{reader.line_num}: {name} value {cell!r} "
                                     f"is not finite")
    raise ValueError(f"{path}: cannot parse table")


def _column(cells: np.ndarray, kind) -> np.ndarray:
    """One parsed field as a column; ValueError on a non-finite float or an
    unknown label."""
    if isinstance(kind, tuple):
        index = np.full(cells.size, -1, np.int64)
        for k, label in enumerate(kind):
            index[cells == label.encode("latin-1")] = k
        cells, valid = index, index >= 0
    else:
        cells = np.ascontiguousarray(cells)
        valid = np.isfinite(cells)
    if not valid.all():
        raise ValueError("a cell is not finite or not a label")
    return cells
