"""The one table codec: named, equal-length columns as CSV or JSON.

CSV is a header row, then one ``\\n``-terminated row per entry, written
``CHUNK_ROWS`` rows at a time. A cell is ``str(int)``, ``repr(float)`` (so
floats round-trip exactly), ``true``/``false`` or the string itself. JSON is
one indented object mapping each name to its column as a list. Each file
layout lives next to its type (``pulsed.click_columns``,
``spectra.trace_columns``, ...).
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import nullcontext

import numpy as np

__all__ = ["CHUNK_ROWS", "format_cell", "write_table", "write_json", "read_table"]

CHUNK_ROWS = 16384


def _cells(values: np.ndarray) -> list:
    kind = values.dtype.kind
    if kind == "f":
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
        write_json({name: c.tolist() for name, c in cols.items()}, out)
        return
    n_rows = next(iter(cols.values())).size if cols else 0
    with _open(out) as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            cells = [_cells(c[start:start + CHUNK_ROWS]) for c in cols.values()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_table(path, header=None, types=None) -> dict:
    """Columns of a CSV table as numpy arrays, keyed by header name.

    ``header`` is the header required (any if None). ``types`` maps a name to
    the parser of one cell: ``float`` (the default) gives a float64 column,
    any other (``int``, ``tuple.index``) an int64 one. Rows are parsed
    ``CHUNK_ROWS`` at a time and blank lines skipped. An empty file, another
    header, a row of another width, a cell that does not parse or a float
    cell that is not finite raises ``ValueError("path:line: ...")``.
    """
    types = types or {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if not head:
            raise ValueError(f"{path}:1: empty table, expected a header row")
        if header is not None and head != list(header):
            raise ValueError(f"{path}:1: expected header {','.join(header)!r}, "
                             f"got {','.join(head)!r}")
        parsers = [types.get(name, float) for name in head]
        chunks, rows, lines = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(head):
                raise ValueError(f"{path}:{reader.line_num}: {len(row)} cells, "
                                 f"the header has {len(head)}")
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == CHUNK_ROWS:
                chunks.append(_parse_rows(path, head, parsers, rows, lines))
                rows, lines = [], []
        chunks.append(_parse_rows(path, head, parsers, rows, lines))
    return {name: np.concatenate([c[i] for c in chunks]) for i, name in enumerate(head)}


def _parse_rows(path, head, parsers, rows, lines) -> list:
    out = []
    for name, parse, cells in zip(head, parsers, zip(*rows) if rows else [()] * len(head)):
        dtype = np.float64 if parse is float else np.int64
        try:
            column = np.fromiter(map(parse, cells), dtype, len(cells))
        except (ValueError, OverflowError):
            for k, cell in enumerate(cells):
                try:
                    np.array(parse(cell), dtype)
                except (ValueError, OverflowError):
                    raise ValueError(f"{path}:{lines[k]}: cannot read {name} "
                                     f"value {cell!r}") from None
            raise
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            k = bad[0]
            raise ValueError(f"{path}:{lines[k]}: {name} value {cells[k]!r} is not finite")
        out.append(column)
    return out
