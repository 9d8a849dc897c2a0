"""One large table written from several processes, for ``table.write_table``.

Imported only for a table large enough to split (``table._processes``), so
that a command writing small tables neither loads nor compiles it.
"""

from __future__ import annotations

import fcntl
import io
import os
import signal
import struct
import tempfile
import termios

from .table import _write

# A table is cut into at most this many jobs, so that their two-byte numbers
# fit one page, the least a pipe holds.
_JOBS = 2048


def emit(pieces: list, fh, n: int) -> None:
    """Write the text of ``pieces`` to ``fh`` in order on up to ``n``
    processes. The pieces are grouped into jobs of about equal float cells.
    This process writes jobs straight to ``fh`` from the first on, while its
    forked children take jobs one at a time from the end of a shared queue,
    so a process on a CPU that other work slows down takes fewer. A child
    appends the text of each job it takes to its spool, an unnamed temporary
    file, and reports it. Where the two ends meet, this process empties the
    queue and copies the children's jobs to ``fh`` in order. A job whose child
    failed before reporting it is encoded here, so a fault in the encoding is
    raised here and a full temporary directory costs time, not the output.
    No child outlives the call, whatever it raises."""
    jobs = _parts(pieces, _JOBS)
    spools, children, queue = [], [], None
    try:
        queue = _Queue(len(jobs))
        for _ in range(n - 1):
            child = _fork(jobs, queue, fh)
            if child is None:
                break
            children.append(child[0])
            spools.append(child[1])
        queue.close_reports()
        done = 0
        while done < queue.untaken():
            _write(jobs[done], fh)
            done += 1
        queue.drain()
        where = {}  # job -> (file descriptor, offset, size) in a child's spool
        for job in range(done, len(jobs)):
            while job not in where and queue.collect(where):
                pass
            if job in where:
                _copy(*where.pop(job), fh)
            else:
                _write(jobs[job], fh)  # every child has exited, and none wrote it
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if queue:
            queue.close()
        for s in spools:
            s.close()


def _parts(pieces: list, n: int) -> list:
    """``pieces`` in at most ``n`` contiguous lists, each cut at the piece
    boundary nearest an equal share of the float cells."""
    share = sum(cells for cells, _ in pieces) / n
    parts, done = [[]], 0
    for cells, text in pieces:
        if cells and len(parts) < n and done + cells / 2 > len(parts) * share:
            parts.append([])
        parts[-1].append((cells, text))
        done += cells
    return parts


def _copy(fd: int, offset: int, size: int, fh) -> None:
    """Append ``size`` bytes of the file ``fd`` from ``offset`` to ``fh``,
    64 KiB at a time, without moving the file's position."""
    fh.flush()
    while size:
        block = os.pread(fd, min(size, 1 << 16), offset)
        if not block:
            raise EOFError("a table spool ended early")
        fh.buffer.write(block)
        offset += len(block)
        size -= len(block)


class _Queue:
    """The numbers of a table's jobs, which the children take last-first
    while their parent writes from the first, and the reports of the jobs the
    children have appended to their spools. Made before the children are
    forked; only their parent reads the reports."""

    def __init__(self, jobs: int):
        # at most _JOBS two-byte numbers: one write, which any pipe takes whole
        self.todo, todo_w = os.pipe()
        os.write(todo_w, struct.pack(f"{jobs}H", *reversed(range(jobs))))
        os.close(todo_w)
        self.done, self.report_w = os.pipe()

    def take(self):
        """The number of the last job not taken, or None."""
        number = os.read(self.todo, 2)
        return struct.unpack("H", number)[0] if number else None

    def untaken(self) -> int:
        """How many jobs no child has taken: always the first ones."""
        size = fcntl.ioctl(self.todo, termios.FIONREAD, bytes(4))
        return struct.unpack("i", size)[0] // 2

    def drain(self) -> None:
        """Take every job left, so that each child stops after its current one."""
        os.read(self.todo, 2 * _JOBS)

    def report(self, job: int, fd: int, offset: int, size: int) -> None:
        os.write(self.report_w, struct.pack("4q", job, fd, offset, size))

    def close_reports(self) -> None:
        """Close this process's end for reports, so that reading them ends
        once every child has exited."""
        os.close(self.report_w)
        self.report_w = None

    def collect(self, where: dict) -> bool:
        """Wait for reports and enter them into ``where``; False once every
        child has exited."""
        records = os.read(self.done, 4096)  # whole records: each is written at once
        for job, *place in struct.iter_unpack("4q", records):
            where[job] = place
        return bool(records)

    def close(self) -> None:
        for fd in (self.todo, self.done, self.report_w):
            if fd is not None:
                os.close(fd)


class _Spool:
    """An unnamed temporary file that one process appends the text of its
    jobs to, in the encoding of ``fh``."""

    def __init__(self, fh):
        self.file = tempfile.TemporaryFile()
        self.text = io.TextIOWrapper(self.file, fh.encoding, fh.errors, newline="")
        self.end = 0

    def append(self, job: list) -> tuple:
        """(file descriptor, offset, size) of the bytes of ``job``'s text."""
        _write(job, self.text)
        self.text.flush()
        start, self.end = self.end, self.file.tell()
        return self.file.fileno(), start, self.end - start

    def close(self) -> None:
        self.text.close()


def _fork(jobs: list, queue: _Queue, fh):
    """(pid, spool) of a forked child that takes jobs from ``queue`` until
    none is left, appends each to its spool and reports it; None where no
    spool or process can be made. A forked child reads the columns in place,
    where a spawned one would import numpy and receive a copy. Whatever it
    raises, the child leaves with ``os._exit``: it never returns into its
    parent's code, runs no exit handler, prints no traceback and flushes
    nothing of its parent's."""
    try:
        spool = _Spool(fh)
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        spool.close()
        return None
    if pid == 0:
        status = 1
        try:
            while (job := queue.take()) is not None:
                queue.report(job, *spool.append(jobs[job]))
            status = 0
        finally:
            os._exit(status)
    return pid, spool
