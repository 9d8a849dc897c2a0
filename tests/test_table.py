"""Tests for the table codec: the cells it writes and its CSV and JSON bytes."""

import json
import math

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from omx import table


def reprs(column) -> list:
    return [repr(v) for v in np.asarray(column).tolist()]


def assert_same_text(got: str, want: str) -> None:
    """Equal texts; on a mismatch, name the first line that differs (a full
    diff of two tables this long takes minutes)."""
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        k, (line, expected) = next(((k, pair) for k, pair in enumerate(pairs)
                                    if pair[0] != pair[1]), (None, ("", "")))
        pytest.fail(f"line {k}: {line!r} != {expected!r} "
                    f"({len(got)} vs {len(want)} characters)")


def naive_csv(columns: dict) -> str:
    rows = zip(*(reprs(c) if np.asarray(c).dtype.kind == "f" else map(str, c)
                 for c in columns.values()))
    return "".join(",".join(row) + "\n" for row in [list(columns), *rows])


class TestCells:
    """Every float cell is repr(float), whichever path formats it."""

    def test_repeated_column(self):
        column = np.repeat([0.1, 2.0 / 3.0, 1e-300, 7.436e9, -5.5], 3000)
        assert table._cells(column) == reprs(column)

    def test_negative_zero_stays_apart_from_zero(self):
        column = np.tile([-0.0, 0.0, 1.0], 1000)
        cells = table._cells(column)
        assert cells[:3] == ["-0.0", "0.0", "1.0"]
        assert cells == reprs(column)

    def test_nan_cells(self):
        column = np.concatenate([np.full(999, np.nan), -np.full(999, np.nan), [1.5]])
        assert table._cells(column) == ["nan"] * 1998 + ["1.5"]
        assert table._cells(np.array([np.nan, 0.25, -np.inf])) == ["nan", "0.25", "-inf"]

    def test_distinct_column(self):
        column = np.geomspace(0.01, 1e4, 5000)
        assert table._cells(column) == reprs(column)

    def test_strided_column(self):
        values = np.arange(4000) % 7 * (1.0 + 1j) / 3.0
        assert table._cells(values.real) == reprs(values.real)

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 1e308, -2.5e-310, math.nan, math.inf]),
                    min_size=1, max_size=300))
    def test_any_mix(self, values):
        assert table._cells(np.array(values)) == reprs(values)


class TestCsv:
    def test_grid_table_spans_chunks(self, tmp_path):
        m = table.CHUNK_ROWS // 8 + 155  # 8 m rows: more than one chunk
        columns = {"detuning_hz": np.repeat([-1e10, -0.0, 0.0, 5e9], 2 * m),
                   "freq_hz": np.tile(np.linspace(6e9, 8e9, m), 8),
                   "mag": np.linspace(0.0, 1.0, 8 * m)[::-1]}
        path = tmp_path / "t.csv"
        table.write_table(columns, path)
        assert_same_text(path.read_text(), naive_csv(columns))


def json_bytes(columns: dict) -> str:
    return json.dumps({k: np.asarray(v).tolist() for k, v in columns.items()}, indent=2) + "\n"


class TestJson:
    """A JSON table has the bytes of json.dumps(..., indent=2)."""

    @pytest.mark.parametrize("columns", [
        {"x": np.array([0.1, -0.0, 1e-300, 2.0 / 3.0, 1e22])},
        {"n": np.array([0, -3, 2**62], dtype=np.int64), "u": np.array([1, 2, 3], np.uint8)},
        {"ok": np.array([True, False, True])},
        {"label": np.array(["blue", "dark", "réd \"q\""])},
        {"empty": np.array([]), "also": np.array([], dtype=np.int64)},
        {"a": np.array([1.5]), "b": np.array([2]), "c": np.array([False]),
         "d": np.array(["x"])},
        {"repeat": np.repeat([0.5, -0.0, 0.0], 7000),
         "index": np.arange(21000), "fine": np.linspace(-1.0, 1.0, 21000)},
        {},
    ])
    def test_matches_json_dumps(self, tmp_path, columns):
        path = tmp_path / "t.json"
        table.write_table(columns, path, "json")
        assert_same_text(path.read_text(), json_bytes(columns))

    def test_stdout_matches_json_dumps(self, capsys):
        columns = {"t_ns": np.array([1.25, 3.5]), "label": np.array(["blue", "red"])}
        table.write_table(columns, None, "json")
        assert capsys.readouterr().out == json_bytes(columns)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_is_not_written(self, tmp_path, bad):
        path = tmp_path / "t.json"
        with pytest.raises(ArithmeticError, match="non-finite"):
            table.write_table({"ok": np.arange(3), "x": np.array([1.0, bad, 2.0])},
                              path, "json")
        assert not path.exists()
