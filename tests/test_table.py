"""Tests for the table codec: the cells it writes, its CSV and JSON bytes, and
the arrays and errors it reads back."""

import json
import math
import warnings

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from omx import table
from omx.cli import main
from omx.pulsed import LABELS


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


CLICKS = "pulse_index,t_ns,label\n"
CLICK_TYPES = {"pulse_index": int, "label": LABELS}


def assert_same_columns(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


class TestRead:
    """read_table gives back, bit for bit, what write_table wrote, and names the
    file line of the first fault."""

    @given(st.lists(st.tuples(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1e308])),
        st.integers(-2**62, 2**62) | st.sampled_from([-2**62, 2**62]),
        st.sampled_from(range(len(LABELS)))), max_size=40))
    def test_round_trip_is_bit_equal(self, tmp_path_factory, rows):
        columns = {"x": np.array([r[0] for r in rows], np.float64),
                   "n": np.array([r[1] for r in rows], np.int64),
                   "label": np.array([r[2] for r in rows], np.int64)}
        path = tmp_path_factory.mktemp("round") / "t.csv"
        table.write_table({**columns, "label": np.array(LABELS)[columns["label"]]}, path)
        assert_same_columns(table.read_table(path, ("x", "n", "label"),
                                             {"n": int, "label": LABELS}), columns)

    @pytest.mark.parametrize("label", ["bluex", "darker", "re", "Blue", " red"])
    def test_label_not_in_the_tuple(self, tmp_path, label):
        path = tmp_path / "c.csv"
        path.write_text(CLICKS + "0,1.5,blue\n\n1,2.5," + label + "\n")
        with pytest.raises(ValueError, match=f"^{path}:4: cannot read label value '{label}'$"):
            table.read_table(path, None, CLICK_TYPES)

    def test_header_only_gives_empty_columns_silently(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text(CLICKS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = table.read_table(path, None, CLICK_TYPES)
        assert {k: (v.dtype, v.size) for k, v in cols.items()} == {
            "pulse_index": (np.int64, 0), "t_ns": (np.float64, 0), "label": (np.int64, 0)}
        assert capsys.readouterr() == ("", "")

    def test_blank_lines_and_crlf(self, tmp_path):
        rows = ["0,1.5,blue", "3,0.25,dark", "7,1e-300,red"]
        clean, messy = tmp_path / "clean.csv", tmp_path / "messy.csv"
        clean.write_text(CLICKS + "\n".join(rows) + "\n")
        messy.write_bytes(b"pulse_index,t_ns,label\r\n\r\n"
                          + "\r\n\r\n".join(rows).encode() + b"\r\n\r\n")
        want = table.read_table(clean, None, CLICK_TYPES)
        assert want["label"].tolist() == [1, 2, 0]
        assert_same_columns(table.read_table(messy, None, CLICK_TYPES), want)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_at_its_file_line(self, tmp_path, cell):
        path = tmp_path / "c.csv"
        path.write_text(CLICKS + "0,1.5,blue\n\n\n1," + cell + ",red\n2,2.5,red\n")
        with pytest.raises(ValueError, match=f"^{path}:5: t_ns value '{cell}' is not finite$"):
            table.read_table(path, None, CLICK_TYPES)

    @pytest.mark.parametrize("cell,where", [
        ("1.0", ":3: cannot read pulse_index value '1.0'"),
        ("9223372036854775808", ":3: cannot read pulse_index value '9223372036854775808'"),
        ("", ":3: cannot read pulse_index value ''"),
    ])
    def test_int_cell_that_does_not_parse(self, tmp_path, cell, where):
        path = tmp_path / "c.csv"
        path.write_text(CLICKS + "0,1.5,blue\n" + cell + ",2.5,red\n")
        with pytest.raises(ValueError, match=f"^{path}{where}$"):
            table.read_table(path, None, CLICK_TYPES)

    @pytest.mark.parametrize("row", ['1,"2.5",red', "1,2_500.0,red", '"1",2.5,red'])
    def test_cell_only_csv_reads_is_a_usage_error(self, tmp_path, capsys, row):
        path = tmp_path / "c.csv"
        path.write_text(CLICKS + "0,1.5,blue\n" + row + "\n")
        with pytest.raises(ValueError, match=f"^{path}: cannot parse table$"):
            table.read_table(path, None, CLICK_TYPES)
        good = tmp_path / "good.csv"
        good.write_text(CLICKS + "0,1.5,blue\n")
        code = main(["estimate", "--blue", str(good), "--red", str(path), "--pulses", "10"])
        assert (code, capsys.readouterr()) == (2, ("", f"error: {path}: cannot parse table\n"))

    def test_repeated_header_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,x\n1.5,2.5\n")
        assert table.read_table(path)["x"].tolist() == [2.5]
