"""The one table codec: named, equal-length columns as CSV or JSON.

CSV is a header row, then one ``\\n``-terminated row per entry, written
``CHUNK_ROWS`` rows at a time: one chunk's cells, rows and text are all the
encoder holds, whatever the size of the table. A cell is ``str(int)``,
``repr(float)`` (so floats round-trip exactly), ``true``/``false`` or the
string itself. A number is orjson's text, which equals that for a bool, an int
and a float x == 0 or 1e-4 <= |x| < 1e16; ``repr`` formats any other float. It
is read back by numpy's C parser in one call; ``csv`` scans a file again only
to name the line of a fault. JSON is one indented object mapping each name to
its column as a list, written from the same cells (a string is JSON-quoted);
its bytes are those of ``json.dumps(..., indent=2)``. A column is an array, or
a column computed for each row range (``Rows``), which is never held whole. A
large table is encoded on up to one process per CPU this process may use, and
its bytes do not depend on how many. Each file layout lives next to its type
(``pulsed.click_columns``, ``spectra.trace_columns``, ...).
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import os
import sys
import threading
import warnings
from contextlib import nullcontext
from functools import partial

import numpy as np

__all__ = ["CHUNK_ROWS", "Rows", "write_table", "write_json", "read_table"]

# One chunk's cells, rows and text are the encoder's working memory, about
# 0.3 KiB a row: 1.2 MiB in tracemalloc for 4,096 rows of a click stream, 5 MiB
# for 16,384. On a shared 2-vCPU x86 VM no one-CPU encode of a click stream, a
# 1e5-point cool-curve or an omit-map table was slower at 4,096 rows than at
# 16,384; at 2,048 the fixed work per chunk began to show.
CHUNK_ROWS = 4096

# The first values of a float column, which decide whether it is a grid axis
# (``_repeats``) and whose distinct values are formatted once per table
# (``_grid``); a fixed sample, so that neither moves with CHUNK_ROWS.
_REPEAT_SAMPLE = 16384

# A float cell costs 0.1-0.2 us to encode on a shared 2-vCPU x86 VM (orjson's
# text and the row joins; 0.2 in a cool-curve table), so a table's float cells
# measure its encoding work. There a forked encoder adds about 10 ms of CPU in
# a process holding an omit-map 401x2001 table: 3 ms for the fork and exit
# alone, the rest copy-on-write faults. That is the encoding of 50-100k cells,
# so a process is added only per this many float cells, where the fork costs
# at most a fifth of the work it takes over at 0.2 us a cell: a 1e5-point
# cool-curve (500k cells) is split, an omit-map 41x2001 JSON table (246k) not.
_CELLS_PER_PROCESS = 250_000


class Rows:
    """A column of ``size`` rows of ``dtype`` that ``fn(start, stop)`` computes
    for each row range, sliced as an array is: the encoder computes one chunk
    at a time, and a forked child its own chunks. The last block computed
    serves any range within it (a chunk within the grid-axis sample, or one
    that two columns read), and is only read. ``fitkit.gauss_newton`` takes
    one whose ``fn`` gives row blocks of a Jacobian in the same way."""

    ndim = 1

    def __init__(self, size: int, fn, dtype=np.float64):
        self.size, self.fn, self.dtype = size, fn, np.dtype(dtype)
        self._last = (0, -1, None)  # (start, stop, block) of the last block computed

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop = rows.indices(self.size)[:2]
        first, last, block = self._last
        if not first <= start <= stop <= last:
            first, last, block = self._last = start, stop, self.fn(start, stop)
        return block[start - first:stop - first]


def _repeats(values: np.ndarray) -> bool:
    """Whether fewer than half of the first ``_REPEAT_SAMPLE`` values of a
    float64 column are distinct (a grid axis); the bit pattern keeps -0.0
    apart from 0.0. Sorting, not ``np.unique``, which would import
    ``numpy.ma``."""
    if values.dtype != np.float64:
        return False
    bits = np.sort(values[:_REPEAT_SAMPLE].view(np.int64))
    return 2 * (1 + np.count_nonzero(bits[1:] != bits[:-1])) < bits.size


def _grid(values: np.ndarray):
    """(sorted bit patterns, cells) of the distinct values among the first
    ``_REPEAT_SAMPLE`` of a grid axis (``_repeats``); None for any other
    column."""
    if values.dtype != np.float64:  # no sample is computed for it
        return None
    sample = values[:_REPEAT_SAMPLE]  # computed once, for a Rows column
    if not _repeats(sample):
        return None
    bits = np.sort(sample.view(np.int64))
    keys = bits[np.append(True, bits[1:] != bits[:-1])]
    return keys, np.array(_numbers(keys.view(np.float64)), object)


def _cells(values: np.ndarray, grid) -> list:
    """The cells of a 1-d column. Where ``grid`` (``_grid`` of the column) is
    given, a chunk whose values are all in its sample takes their cells from
    it, and any other chunk formats each of its distinct floats once."""
    if values.dtype.kind not in "biuf":
        return list(map(str, values.tolist()))
    if grid is None:
        return _numbers(values)
    keys, text = grid
    bits = values.view(np.int64)
    at = np.minimum(np.searchsorted(keys, bits), keys.size - 1)
    if np.array_equal(keys[at], bits):
        return text[at].tolist()
    bits, index = np.unique(bits, return_inverse=True)
    return np.array(_numbers(bits.view(np.float64)), object)[index].tolist()


def _numbers(values: np.ndarray) -> list:
    """The cells of a bool, int or float column: orjson's text, and ``repr``'s
    for a float outside its window (x == 0 or 1e-4 <= |x| < 1e16)."""
    import orjson

    # orjson reads an array's bytes as native and C-contiguous; float32 widens
    # exactly, as tolist does
    kind = values.dtype.kind
    values = np.ascontiguousarray(values, np.float64 if kind == "f"
                                  else values.dtype.newbyteorder("="))
    if not values.size:
        return []
    cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    if kind == "f":
        size = np.abs(values)
        other = np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (values != 0))
        for k, value in zip(other.tolist(), values[other].tolist()):
            cells[k] = repr(value)
    return cells


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
    """Write equal-length named columns as "csv" or "json" to ``out`` (stdout if None).

    A large table is encoded by up to one process per CPU this process may
    use; the bytes are the same for any number. A column is an array or a
    ``Rows``. A complex column, or a float column wider than float64, raises
    ``ValueError`` and nothing is written.
    """
    cols = {name: col if isinstance(col, Rows) else np.asarray(col)
            for name, col in columns.items()}
    if any(c.ndim != 1 for c in cols.values()) or len({c.size for c in cols.values()}) > 1:
        raise ValueError("table columns must be 1-d and of equal length")
    for name, c in cols.items():
        # read_table parses neither "(1+2j)" nor more digits than a float64's
        if c.dtype.kind == "c" or (c.dtype.kind == "f" and c.dtype.itemsize > 8):
            raise ValueError(f"column {name!r} is {c.dtype}, which read_table cannot read back")
    if fmt == "json":  # chunk by chunk, so that a Rows column is never held whole
        for name, c in cols.items():
            if c.dtype.kind == "f" and not all(
                    np.isfinite(c[start:start + CHUNK_ROWS]).all()
                    for start in range(0, c.size, CHUNK_ROWS)):
                raise ArithmeticError(f"non-finite result, not written as JSON "
                                      f"(column {name!r} has a non-finite value)")
    # json writes a finite float with float.__repr__ and an int with
    # int.__repr__, as _cells does, so JSON is written from the same cells;
    # indent=2 would run json's pure-Python encoder instead
    encoders = [_json_strings if fmt == "json" and c.dtype.kind not in "biuf"
                else partial(_cells, grid=_grid(c)) for c in cols.values()]
    pieces = (_json_pieces if fmt == "json" else _csv_pieces)(cols, encoders)
    with _open(out) as fh:
        _emit(pieces, fh)


# A table is written as an ordered list of pieces: (float cells, text), where
# the text is a str or a function that encodes it.


def _csv_pieces(cols: dict, encoders: list) -> list:
    columns = list(cols.values())
    n_rows = columns[0].size if columns else 0
    floats = sum(c.dtype.kind == "f" for c in columns)
    return [(0, ",".join(cols) + "\n")] + [
        (min(CHUNK_ROWS, n_rows - start) * floats,
         partial(_csv_chunk, columns, encoders, start))
        for start in range(0, n_rows, CHUNK_ROWS)]


def _csv_chunk(columns: list, encoders: list, start: int) -> str:
    cells = [cells(c[start:start + CHUNK_ROWS]) for c, cells in zip(columns, encoders)]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _json_pieces(cols: dict, encoders: list) -> list:
    pieces = [(0, "{")]
    for k, ((name, c), cells) in enumerate(zip(cols.items(), encoders)):
        pieces.append((0, ("," if k else "") + "\n  " + json.dumps(name) + ": ["))
        pieces += [(min(CHUNK_ROWS, c.size - start) * (c.dtype.kind == "f"),
                    partial(_json_chunk, c, cells, start))
                   for start in range(0, c.size, CHUNK_ROWS)]
        pieces.append((0, "\n  ]" if c.size else "]"))
    return pieces + [(0, "\n}\n" if cols else "}\n")]


def _json_chunk(column: np.ndarray, cells, start: int) -> str:
    return (("," if start else "") + "\n    "
            + ",\n    ".join(cells(column[start:start + CHUNK_ROWS])))


def _json_strings(values: np.ndarray) -> list:
    return list(map(json.dumps, values.tolist()))


def _emit(pieces: list, fh) -> None:
    """Write the text of ``pieces`` to ``fh`` in order, on as many processes
    as ``_processes`` gives (``omx._parallel``)."""
    n = _processes(pieces, fh)
    if n == 1:
        _write(pieces, fh)
    else:
        import orjson  # noqa: F401  loaded here once, not in each forked child
        from . import _parallel
        _parallel.emit(pieces, fh, n)


def _processes(pieces: list, fh) -> int:
    """One process per ``_CELLS_PER_PROCESS`` float cells, up to the CPUs this
    process may use and the pieces with float cells; one where that is
    unknown (no ``sched_getaffinity``), where another Python thread runs
    (threads of native libraries are not seen), where ``fh`` has no byte
    buffer to copy to or where its encoding is not UTF-8: a child encodes each
    job on its own, and a UTF-16 or ``utf-8-sig`` text would start with a BOM."""
    cells = sum(cells for cells, _ in pieces)
    if (cells < 2 * _CELLS_PER_PROCESS or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1 or not hasattr(fh, "buffer")
            or codecs.lookup(fh.encoding).name != "utf-8"):
        return 1
    return min(len(os.sched_getaffinity(0)), cells // _CELLS_PER_PROCESS,
               sum(cells > 0 for cells, _ in pieces))


def _texts(part: list):
    """The text of each piece of ``part``, encoded as it is reached."""
    return (text if isinstance(text, str) else text() for _, text in part)


def _write(part: list, fh) -> None:
    fh.writelines(_texts(part))  # drops each text before the next is encoded


def read_table(path, header=None, types=None) -> dict:
    """Columns of a CSV table as numpy arrays, keyed by header name.

    ``header`` is the header required (any if None). ``types`` maps a name to
    ``int`` (an int64 column) or to a tuple of labels (int64 indices into it);
    other columns are float64. After the header is checked, numpy's C parser
    reads every row in one call, skipping blank lines. If it rejects a row, a
    float cell is not finite, a label is unknown, or a table with labels holds
    a NUL, a ``csv`` scan of the file finds the first fault to raise
    ``ValueError("path:line: ...")``; if that scan finds none (a quoted
    number, ``1_000``), ``"path: cannot parse table"``.
    """
    types = types or {}
    with open(path, newline="") as fh:
        head = next(_csv_rows(fh), (0, None))[1]
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
    # numpy drops trailing NULs from a bytes field (``blue\0`` would read as
    # ``blue``), so a labelled table holding a NUL goes to the csv scan
    labelled = any(isinstance(kind, tuple) for kind in kinds)
    if not (labelled and _has_nul(path)):
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(path, dtype, delimiter=",", skiprows=1, comments=None, ndmin=1)
            return {name: _column(rows[str(i)], kind)
                    for i, (name, kind) in enumerate(zip(head, kinds))}
        except ValueError:
            pass
    with open(path, newline="") as fh:
        rows = _csv_rows(fh)
        next(rows)
        for line, row in rows:
            if row and len(row) != len(head):
                raise ValueError(f"{path}:{line}: {len(row)} cells, "
                                 f"the header has {len(head)}")
            for name, kind, cell in zip(head, kinds, row):
                try:
                    value = kind.index(cell) if isinstance(kind, tuple) else kind(cell)
                    finite = math.isfinite(np.int64(value) if kind is int else value)
                except (ValueError, OverflowError):
                    raise ValueError(f"{path}:{line}: cannot read {name} "
                                     f"value {cell!r}") from None
                if not finite:
                    raise ValueError(f"{path}:{line}: {name} value {cell!r} "
                                     f"is not finite")
    raise ValueError(f"{path}: cannot parse table")


def _csv_rows(fh):
    """(line number, cells) for each csv row of ``fh``. Python 3.10's csv
    reader refuses a NUL, so each NUL goes through it as a lone surrogate,
    which no strict decoding of a file yields, and is put back in the cells."""
    reader = csv.reader(text.replace("\0", "\udc00") for text in fh)
    for row in reader:
        if "\udc00" in ",".join(row):
            row = [cell.replace("\udc00", "\0") for cell in row]
        yield reader.line_num, row


def _has_nul(path) -> bool:
    with open(path, "rb") as fh:
        return any(b"\0" in chunk for chunk in iter(lambda: fh.read(1 << 20), b""))


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
