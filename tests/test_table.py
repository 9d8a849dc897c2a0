"""Tests for the table codec: the cells it writes, its CSV and JSON bytes, and
the arrays and errors it reads back."""

import json
import math
import os
import re
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from omx import _parallel, table
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


def naive_cells(column) -> list:
    kind = np.asarray(column).dtype.kind
    return (reprs(column) if kind == "f" else ["true" if v else "false" for v in column]
            if kind == "b" else list(map(str, column)))


def naive_csv(columns: dict) -> str:
    rows = zip(*map(naive_cells, columns.values()))
    return "".join(",".join(row) + "\n" for row in [list(columns), *rows])


def cells(column) -> list:
    """The cells write_table gives a column."""
    return table._cells(column, table._grid(column))


class TestCells:
    """Every float cell is repr(float), whichever path formats it."""

    def test_repeated_column(self):
        column = np.repeat([0.1, 2.0 / 3.0, 1e-300, 7.436e9, -5.5], 3000)
        assert table._repeats(column)
        assert cells(column) == reprs(column)

    def test_negative_zero_stays_apart_from_zero(self):
        column = np.tile([-0.0, 0.0, 1.0], 1000)
        got = cells(column)
        assert got[:3] == ["-0.0", "0.0", "1.0"]
        assert got == reprs(column)

    def test_nan_cells(self):
        column = np.concatenate([np.full(999, np.nan), -np.full(999, np.nan), [1.5]])
        assert cells(column) == ["nan"] * 1998 + ["1.5"]
        assert cells(np.array([np.nan, 0.25, -np.inf])) == ["nan", "0.25", "-inf"]

    def test_distinct_column(self):
        column = np.geomspace(0.01, 1e4, 5000)
        assert not table._repeats(column)
        assert cells(column) == reprs(column)

    def test_strided_column(self):
        values = np.arange(4000) % 7 * (1.0 + 1j) / 3.0
        assert cells(values.real) == reprs(values.real)

    def test_big_endian_column(self):
        column = np.repeat([0.1, -0.0, 7.5], 3000).astype(">f8")
        assert cells(column) == reprs(column)

    # orjson formats numbers from an array's bytes; every float outside
    # 1e-4 <= |x| < 1e16 (and x != 0) is formatted by repr

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.integers(-2**63, 2**63, 10**6, np.int64).view(np.float64),
        lambda rng: rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-6, 18, 200_000),
    ], ids=["bit-patterns", "log-uniform"])
    def test_random_column(self, draw):
        column = draw(np.random.default_rng(20241016))
        assert not table._repeats(column)
        assert cells(column) == reprs(column)

    @pytest.mark.parametrize("edge", [1e-4, 1e16])
    def test_window_edges(self, edge):
        near = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
        column = np.array(near + [-x for x in near])
        assert cells(column) == reprs(column)

    def test_extreme_floats(self):
        info = np.finfo(np.float64)
        column = np.array([info.smallest_subnormal, -info.smallest_subnormal, 2.5e-310,
                           info.tiny, -info.tiny, info.max, -info.max, 0.0, -0.0,
                           np.nan, np.inf, -np.inf])
        assert cells(column) == reprs(column)

    @pytest.mark.parametrize("column", [
        np.array([0.1, 2.0 / 3.0, 1e-5, 12.5, 1e22, -0.0, np.inf], ">f8"),
        np.arange(3, dtype=">i8"),
        np.arange(-5, 5, dtype=">i4") * 100_003,
    ], ids=[">f8", ">i8", ">i4"])
    def test_big_endian_distinct_column(self, column):
        assert cells(column) == naive_cells(column)

    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("dtype", ["i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8"])
    def test_int_extremes(self, dtype, order):
        info = np.iinfo(dtype)
        column = np.array([info.min, info.min + 1, 0, 1, info.max - 1, info.max],
                          dtype).astype(order + dtype)
        assert cells(column) == naive_cells(column)

    def test_float32_widens_exactly(self):
        column = np.array([0.1, 1.0 / 3.0, 1e-5, 3e38, -0.0, np.nan], np.float32)
        assert cells(column) == reprs(column)
        assert cells(column)[0] == "0.10000000149011612"

    @pytest.mark.parametrize("column", [
        np.linspace(-1.0, 1e17, 3001)[::3],
        np.arange(0, 90, dtype=np.int64)[::3],
        (np.arange(60) % 3 == 0)[::2],
    ], ids=["float", "int", "bool"])
    def test_strided_distinct_column(self, column):
        assert not column.flags.c_contiguous
        assert cells(column) == naive_cells(column)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_])
    def test_empty_column(self, dtype):
        assert cells(np.array([], dtype)) == []

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 1e308, -2.5e-310, math.nan, math.inf]),
                    min_size=1, max_size=300))
    def test_any_mix(self, values):
        assert cells(np.array(values)) == reprs(values)


class TestCsv:
    def test_grid_table_spans_chunks(self, tmp_path):
        m = table.CHUNK_ROWS // 8 + 155  # 8 m rows: more than one chunk
        columns = {"detuning_hz": np.repeat([-1e10, -0.0, 0.0, 5e9], 2 * m),
                   "freq_hz": np.tile(np.linspace(6e9, 8e9, m), 8),
                   "mag": np.linspace(0.0, 1.0, 8 * m)[::-1]}
        path = tmp_path / "t.csv"
        table.write_table(columns, path)
        assert_same_text(path.read_text(), naive_csv(columns))

    @pytest.mark.parametrize("out", ["file", "stdout"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("dtype", [
        np.complex64, np.complex128,
        pytest.param(np.longdouble, marks=pytest.mark.skipif(
            np.dtype(np.longdouble).itemsize <= 8, reason="long double is float64 here")),
    ])
    def test_column_read_table_cannot_read_back_is_not_written(self, tmp_path, capsys,
                                                              dtype, fmt, out):
        """A complex cell would be "(1+2j)" and a long double would lose its
        digits: neither is written, and the output is never opened."""
        path = tmp_path / "t"
        with pytest.raises(ValueError, match=f"column 'z' is {np.dtype(dtype)}"):
            table.write_table({"ok": np.arange(3), "z": np.arange(3).astype(dtype) / 3},
                              path if out == "file" else None, fmt)
        assert not path.exists() and capsys.readouterr().out == ""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_narrow_float_column_widens_exactly(self, tmp_path, dtype):
        column = (np.arange(-5, 6) / 3).astype(dtype)
        path = tmp_path / "t.csv"
        table.write_table({"x": column}, path)
        assert table.read_table(path)["x"].tobytes() == column.astype(np.float64).tobytes()


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


class TestChunks:
    """A table is encoded ``CHUNK_ROWS`` rows at a time: the chunk bounds the
    encoder's memory and changes no byte."""

    @staticmethod
    def grid_table() -> dict:
        """int, bool, label and float columns past the grid-axis sample: a
        probe axis repeating every 5,000 rows (more than ``CHUNK_ROWS``, fewer
        than the sample), a sweep axis with values the sample does not hold,
        and random floats."""
        n = table._REPEAT_SAMPLE + 2345
        index = np.arange(n)
        return {"index": index - n // 2, "ok": index % 3 == 0,
                "label": np.array(LABELS)[index % 3],
                "detuning_hz": np.repeat(np.linspace(-1e10, 5e9, 9), 2500)[:n],
                "probe_hz": np.tile(np.linspace(6e9, 8e9, 5000), n // 5000 + 1)[:n],
                "noise": np.random.default_rng(3).standard_normal(n) * 1e3}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, fmt):
        columns = self.grid_table()
        want = json_bytes(columns) if fmt == "json" else naive_csv(columns)
        for rows in (1, 3, table.CHUNK_ROWS, 16384):
            monkeypatch.setattr(table, "CHUNK_ROWS", rows)
            assert table._repeats(columns["probe_hz"]) and table._repeats(columns["detuning_hz"])
            table.write_table(columns, tmp_path / "t", fmt)
            assert_same_text((tmp_path / "t").read_text(), want)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_row_range_column_writes_the_bytes_of_its_array(self, tmp_path, monkeypatch, fmt):
        """Each float column as a ``Rows``: the same bytes, and no range asked
        for is longer than a chunk or the grid-axis sample."""
        columns = self.grid_table()
        ranges = []

        def rows(column):
            def compute(start, stop):
                ranges.append(stop - start)
                return column[start:stop].copy()
            return table.Rows(column.size, compute)

        lazy = {name: rows(c) if c.dtype.kind == "f" else c for name, c in columns.items()}
        want = json_bytes(columns) if fmt == "json" else naive_csv(columns)
        for size in (1, 3, table.CHUNK_ROWS, 16384):
            monkeypatch.setattr(table, "CHUNK_ROWS", size)
            ranges.clear()
            table.write_table(lazy, tmp_path / "t", fmt)
            assert_same_text((tmp_path / "t").read_text(), want)
            assert 0 < max(ranges) <= max(size, table._REPEAT_SAMPLE)

    def test_non_finite_row_range_column_is_not_written_as_json(self, tmp_path):
        values = np.arange(3.0 * table.CHUNK_ROWS)
        values[-1] = np.nan
        column = table.Rows(values.size, lambda start, stop: values[start:stop])
        with pytest.raises(ArithmeticError, match="column 'x' has a non-finite value"):
            table.write_table({"i": np.arange(values.size), "x": column},
                              tmp_path / "t.json", "json")
        assert not (tmp_path / "t.json").exists()

    def test_memory_does_not_grow_with_the_table(self, tmp_path, monkeypatch):
        """On one process, the peak of the Python allocations made while a
        table of three float columns is written is about one chunk's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        rng, peaks = np.random.default_rng(5), []
        for chunks in (8, 64):
            columns = {name: rng.random(chunks * table.CHUNK_ROWS) * 1e3 for name in "xyz"}
            tracemalloc.start()
            try:
                table.write_table(columns, tmp_path / "t.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]
        # 1.5 MiB at 4,096 rows a chunk (python 3.11, numpy 2.4), 6 MiB at 16,384
        assert peaks[1] < 2.5 * 2**20


def wide_table() -> dict:
    """A table of 8 chunks and a bit: int, float, bool and label columns, the
    floats repeating, distinct and at the edges of their formatting."""
    n = 8 * table.CHUNK_ROWS + 123
    index = np.arange(n) - n // 2
    edges = np.tile([-0.0, 0.0, 5e-324, -2.5e-310, 1e16, 1e-5, 1e22, 2.0 / 3.0], n // 8 + 1)
    fine = np.random.default_rng(7).standard_normal(n) * 1e3
    fine[::997] = edges[:fine[::997].size]
    return {"index": index, "grid_hz": np.repeat(np.linspace(-1e10, 5e9, 9), n // 9 + 1)[:n],
            "edge": edges[:n], "fine": fine, "ok": index % 3 == 0,
            "label": np.array(LABELS)[index % 3]}


class RecordedSpool:
    """A child's spool: its temporary file, and the writes this process makes
    to it."""

    def __init__(self, file):
        self.file, self.writes = file, []

    def write(self, data):
        self.writes.append(data)
        return self.file.write(data)

    def __getattr__(self, name):
        return getattr(self.file, name)


def spool_record(job: int, text: bytes) -> bytes:
    return _parallel._HEADER.pack(job, len(text)) + text


@pytest.mark.parametrize("tail", [b"", b"\x07" * 9, spool_record(5, b"x" * 100)[:-1]],
                         ids=["whole", "cut header", "cut text"])
def test_spool_index_gives_the_whole_records(tmp_path, tail):
    """A child killed as it writes leaves a record cut short at the end of
    its spool: the records before it are indexed, and it is left out."""
    path = tmp_path / "spool"
    path.write_bytes(spool_record(3, b"abc") + spool_record(0, b"")
                     + spool_record(1, "\u00e9\n".encode()) + tail)
    with open(path, "rb") as fh:
        fd = fh.fileno()
        assert _parallel._index(fd) == {3: (fd, 16, 3), 0: (fd, 35, 0), 1: (fd, 51, 3)}
    path.write_bytes(tail)
    with open(path, "rb") as fh:
        assert _parallel._index(fh.fileno()) == {}


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="a table is split only where the CPUs a process may use are known")
class TestProcesses:
    """A large table is encoded on up to one process per CPU it may use; its
    bytes do not depend on how many."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The forks made, with four CPUs and a process per 1000 float cells."""
        made, fork = [], os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(table, "_CELLS_PER_PROCESS", 1000)
        monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
        return made

    @pytest.fixture
    def spools(self, monkeypatch):
        """The spools this process makes, each recording the writes made to it
        by this process (a child's writes change only the child's copy)."""
        made, temporary = [], _parallel.tempfile.TemporaryFile

        def record():
            made.append(RecordedSpool(temporary()))
            return made[-1]
        monkeypatch.setattr(_parallel.tempfile, "TemporaryFile", record)
        return made

    @staticmethod
    def refuse_forks(monkeypatch):
        def fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", fork)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_do_not_depend_on_the_process_count(self, tmp_path, monkeypatch, forks, fmt):
        columns = wide_table()
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
            self.refuse_forks(one_cpu)
            table.write_table(columns, tmp_path / "one", fmt)
        table.write_table(columns, tmp_path / "four", fmt)
        assert len(forks) == 3
        one, four = (tmp_path / "one").read_text(), (tmp_path / "four").read_text()
        assert_same_text(four, one)
        assert_same_text(one, json_bytes(columns) if fmt == "json" else naive_csv(columns))

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-8-sig"])
    def test_one_bom_on_any_number_of_cpus(self, tmp_path, monkeypatch, forks, encoding):
        """A child would start each job it encodes with a BOM: a UTF-16 or
        ``utf-8-sig`` file has the bytes of the text encoded once."""
        columns, written = wide_table(), []
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            path = tmp_path / f"{len(cpus)}.csv"
            with open(path, "w", encoding=encoding, newline="") as fh:
                monkeypatch.setattr("sys.stdout", fh)
                table.write_table(columns)
            written.append(path.read_bytes())
        assert written[0] == written[1] == naive_csv(columns).encode(encoding)

    def test_interrupt_exits_130_and_leaves_no_child(self, tmp_path, monkeypatch, capfd,
                                                     forks):
        """Ctrl-C while this process encodes its first job of a split table.
        Each child holds its first job until then, so no child can take job 0
        first, whichever process the scheduler runs."""
        parent, chunk, raised = os.getpid(), table._csv_chunk, tmp_path / "raised"

        def interrupted(*args):
            if os.getpid() == parent:
                raised.touch()
                raise KeyboardInterrupt
            deadline = time.monotonic() + 10
            while not raised.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            return chunk(*args)
        monkeypatch.setattr(table, "_csv_chunk", interrupted)
        out = tmp_path / "curve.csv"
        assert main(["cool-curve", "--points", "50000", "--out", str(out)]) == 130
        assert len(forks) == 3
        assert capfd.readouterr().err == ""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_json_part_that_opens_a_column(self, tmp_path, forks):
        """The text before a cut, here the name of the next column, is written
        before the bytes of the part after it."""
        columns = {"a": np.linspace(0.0, 1.0, table.CHUNK_ROWS),
                   "b": np.linspace(1.0, 2.0, table.CHUNK_ROWS)}
        table.write_table(columns, tmp_path / "t.json", "json")
        assert len(forks) == 1
        assert_same_text((tmp_path / "t.json").read_text(), json_bytes(columns))

    def test_file_opened_to_append(self, tmp_path, monkeypatch, forks):
        """``omx ... >> file``: the table follows what the file held."""
        columns = wide_table()
        path = tmp_path / "t.csv"
        path.write_text("before\n")
        with open(path, "a", newline="") as fh:
            monkeypatch.setattr("sys.stdout", fh)
            table.write_table(columns)
        assert len(forks) == 3
        assert_same_text(path.read_text(), "before\n" + naive_csv(columns))

    def test_encoding_fault_is_raised_once_and_leaves_no_child(self, tmp_path, monkeypatch,
                                                               capfd, forks):
        chunk = table._csv_chunk

        def fail_late(columns, encoders, start):
            if start >= 4 * table.CHUNK_ROWS:
                raise UnicodeError("cannot encode")
            return chunk(columns, encoders, start)
        monkeypatch.setattr(table, "_csv_chunk", fail_late)
        with pytest.raises(UnicodeError, match="cannot encode"):
            table.write_table(wide_table(), tmp_path / "t.csv")
        assert len(forks) == 3
        assert capfd.readouterr().err == ""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failure", ["raises", "is killed"])
    def test_part_of_a_failed_child_is_encoded_here(self, tmp_path, monkeypatch, capfd, forks,
                                                    failure):
        parent, chunk = os.getpid(), table._csv_chunk

        def fail_in_a_child(*args):
            if os.getpid() != parent:
                if failure == "raises":
                    raise OSError(28, "No space left on device")
                os.kill(os.getpid(), signal.SIGKILL)
            return chunk(*args)
        monkeypatch.setattr(table, "_csv_chunk", fail_in_a_child)
        columns = wide_table()
        table.write_table(columns, tmp_path / "t.csv")
        assert len(forks) == 3
        assert capfd.readouterr().err == ""
        assert_same_text((tmp_path / "t.csv").read_text(), naive_csv(columns))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cut", [lambda record: 8, lambda record: len(record) // 2],
                             ids=["header", "text"])
    def test_part_of_a_child_killed_mid_record_is_encoded_here(self, tmp_path, monkeypatch,
                                                              capfd, forks, spools, cut):
        """Each child writes part of its first record and kills itself; the
        jobs the children took are encoded here."""
        parent, chunk, killed = os.getpid(), table._csv_chunk, tmp_path / "killed"

        def half_record(spool, record):
            if os.getpid() != parent:
                spool.file.write(record[:cut(record)])
                spool.file.flush()
                killed.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return spool.file.write(record)
        monkeypatch.setattr(RecordedSpool, "write", half_record)

        def slow_here(*args):
            if os.getpid() == parent and args[2] == 0:
                time.sleep(0.5)  # so that the children take jobs
            return chunk(*args)
        monkeypatch.setattr(table, "_csv_chunk", slow_here)
        columns = wide_table()
        table.write_table(columns, tmp_path / "t.csv")
        assert len(forks) == 3 and killed.exists()
        assert capfd.readouterr().err == ""
        assert_same_text((tmp_path / "t.csv").read_text(), naive_csv(columns))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_many_jobs_on_more_processes_than_cpus(self, tmp_path, monkeypatch, forks):
        """Each of ~400 jobs, taken by one of 8 processes, is written once and
        in its place; a lost or doubled job changes the bytes. A lost job is
        encoded by this process, not waited for; an alarm bounds a hang."""
        columns = {name: c[:20_000] for name, c in wide_table().items()}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.setattr(table, "CHUNK_ROWS", 50)

        def too_long(signum, frame):
            raise TimeoutError("write_table did not finish")
        previous = signal.signal(signal.SIGALRM, too_long)
        signal.alarm(120)
        try:
            for round_ in range(3):
                table.write_table(columns, tmp_path / f"{round_}.csv")
                assert_same_text((tmp_path / f"{round_}.csv").read_text(), naive_csv(columns))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 3 * 7
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_slow_child_takes_fewer_jobs(self, tmp_path, monkeypatch, forks):
        """Jobs go to whichever process is free: while each child stalls on
        its first job, this process encodes the rest."""
        parent, chunk, here = os.getpid(), table._csv_chunk, []

        def slow_in_a_child(*args):
            if os.getpid() == parent:
                here.append(args[2])
            else:
                time.sleep(1.0)
            return chunk(*args)
        monkeypatch.setattr(table, "_csv_chunk", slow_in_a_child)
        columns = wide_table()
        table.write_table(columns, tmp_path / "t.csv")
        assert len(forks) == 3
        assert len(here) >= 5  # of 9 chunks, where an even share is 2 or 3
        assert_same_text((tmp_path / "t.csv").read_text(), naive_csv(columns))

    def test_a_slow_main_process_takes_fewer_jobs(self, tmp_path, monkeypatch, forks):
        """While this process stalls on its first job, the children take the
        others from the end."""
        parent, chunk, here = os.getpid(), table._csv_chunk, []

        def slow_here(*args):
            if os.getpid() == parent:
                here.append(args[2])
                if args[2] == 0:
                    time.sleep(1.0)
            return chunk(*args)
        monkeypatch.setattr(table, "_csv_chunk", slow_here)
        columns = wide_table()
        table.write_table(columns, tmp_path / "t.csv")
        assert len(forks) == 3
        assert here[0] == 0 and len(here) <= 2  # of 9 chunks, where an even share is 2 or 3
        assert_same_text((tmp_path / "t.csv").read_text(), naive_csv(columns))

    def test_failed_fork_closes_its_spool(self, tmp_path, monkeypatch, forks, spools):
        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
        columns = wide_table()
        table.write_table(columns, tmp_path / "t.csv")
        assert len(spools) == 1 and spools[0].file.closed
        assert_same_text((tmp_path / "t.csv").read_text(), naive_csv(columns))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_job_where_the_ends_meet_is_written_once(self, tmp_path, monkeypatch, forks):
        """This process holds its first job until a child has encoded it too:
        only this process's text of it is written."""
        parent, chunk, taken = os.getpid(), table._csv_chunk, tmp_path / "taken"

        def both_ends(*args):
            if os.getpid() == parent:
                if args[2] == 0:
                    deadline = time.monotonic() + 60
                    while not taken.exists() and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert taken.exists(), "no child took the first job"
                return chunk(*args)
            time.sleep(0.2)  # so that this process starts the first job first
            if args[2] == 0:
                taken.touch()
                return "from a child\n"
            return chunk(*args)
        monkeypatch.setattr(table, "_csv_chunk", both_ends)
        columns = wide_table()
        table.write_table(columns, tmp_path / "t.csv")
        assert len(forks) == 3
        assert_same_text((tmp_path / "t.csv").read_text(), naive_csv(columns))

    def test_one_spool_per_child_and_none_here(self, tmp_path, monkeypatch, forks, spools):
        """This process writes its jobs straight to the output: it makes a
        spool only for each child it forks, and appends to none."""
        columns = wide_table()
        table.write_table(columns, tmp_path / "t.csv")
        assert len(spools) == len(forks) == 3
        appended = [write for spool in spools for write in spool.writes]
        assert appended == [] and all(spool.file.closed for spool in spools)
        assert_same_text((tmp_path / "t.csv").read_text(), naive_csv(columns))

    def test_no_temporary_directory_keeps_one_process(self, tmp_path, monkeypatch, forks):
        def no_directory():
            raise FileNotFoundError("No usable temporary directory found")
        monkeypatch.setattr(_parallel.tempfile, "TemporaryFile", no_directory)
        columns = wide_table()
        table.write_table(columns, tmp_path / "t.csv")
        assert forks == []
        assert_same_text((tmp_path / "t.csv").read_text(), naive_csv(columns))

    @pytest.mark.usefixtures("forks")
    def test_caller_with_a_second_thread_never_forks(self, tmp_path, monkeypatch):
        self.refuse_forks(monkeypatch)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            columns = wide_table()
            table.write_table(columns, tmp_path / "t.csv")
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert_same_text((tmp_path / "t.csv").read_text(), naive_csv(columns))

    def test_small_table_never_forks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        self.refuse_forks(monkeypatch)
        columns = {"t_ns": np.linspace(0.0, 1.0, 2 * table._CELLS_PER_PROCESS - 1)}
        for fmt in ("csv", "json"):
            table.write_table(columns, tmp_path / fmt, fmt)
        assert_same_text((tmp_path / "csv").read_text(), naive_csv(columns))


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

    @pytest.mark.parametrize("label", ["blue\0", "red\0\0", "dark\0"])
    def test_label_with_trailing_nul(self, tmp_path, capsys, label):
        # numpy's bytes fields drop trailing NULs; the cell is still not a label
        path = tmp_path / "c.csv"
        path.write_text(CLICKS + "0,1.5," + label + "\n1,2.5,red\n")
        message = f"{path}:2: cannot read label value {label!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            table.read_table(path, None, CLICK_TYPES)
        good = tmp_path / "good.csv"
        good.write_text(CLICKS + "0,1.5,blue\n")
        code = main(["estimate", "--blue", str(good), "--red", str(path), "--pulses", "10"])
        assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n"))

    @pytest.mark.parametrize("text,header,where", [
        ("x,n\n1.5,2\n2.5\0,3\n", None, ":3: cannot read x value '2.5\\x00'"),
        ("x,n\n1.5,2\n\0\n", None, ":3: 1 cells, the header has 2"),
        ("x\0,n\n1.5,2\n", ("x", "n"), ":1: expected header 'x,n', got 'x\\x00,n'"),
    ])
    def test_nul_outside_a_label_is_named(self, tmp_path, text, header, where):
        # Python 3.10's csv reader refuses a NUL; the message is the same on every version
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            table.read_table(path, header, {"n": int})
        assert str(info.value) == f"{path}{where}"

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
