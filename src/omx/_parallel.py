"""One large table written from several processes, for ``table.write_table``.

Imported only for a table large enough to split (``table._processes``), so
that a command writing small tables neither loads nor compiles it.
"""

from __future__ import annotations

import fcntl
import os
import signal
import struct
import tempfile
import termios

from .table import _texts, _write

# A table is cut into at most this many jobs, so that their two-byte numbers
# fit one page, the least a pipe holds.
_JOBS = 2048

# A child's spool is a run of records: a job's number and the size of its
# text in bytes, then that text.
_HEADER = struct.Struct("2Q")


def emit(pieces: list, fh, n: int) -> None:
    """Write the text of ``pieces`` to ``fh`` in order on up to ``n``
    processes. The pieces are grouped into jobs of about equal float cells.
    This process writes jobs straight to ``fh`` from the first on, while its
    forked children take jobs one at a time from the end of a shared queue,
    so a process on a CPU that other work slows down takes fewer. A child
    appends each job it takes, as a record, to its spool, an unnamed
    temporary file. Where the two ends meet, this process empties the queue,
    waits for the children to exit and copies their jobs to ``fh`` in order.
    A job with no whole record (its child failed, or none took it) is encoded
    here, so a fault in the encoding is raised here and a full temporary
    directory costs time, not the output. No child outlives the call,
    whatever it raises."""
    jobs = _parts(pieces, _JOBS)
    spools, children, queue = [], [], None
    try:
        queue = _queue(len(jobs))
        for _ in range(n - 1):
            child = _fork(jobs, queue, fh)
            if child is None:
                break
            children.append(child[0])
            spools.append(child[1])
        done = 0
        while done < _untaken(queue):
            _write(jobs[done], fh)
            done += 1
        os.read(queue, 2 * _JOBS)  # take every job left: each child stops after its current one
        while children:
            os.waitpid(children[-1], 0)
            children.pop()
        where = {}  # job -> (file descriptor, offset, size) in a child's spool
        for spool in spools:
            where.update(_index(spool.fileno()))
        for job in range(done, len(jobs)):
            if job in where:
                _copy(*where[job], fh)
            else:
                _write(jobs[job], fh)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if queue is not None:
            os.close(queue)
        for spool in spools:
            spool.close()


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


def _queue(jobs: int) -> int:
    """The read end of a pipe holding the numbers of ``jobs`` jobs, last
    first; its write end is closed, so a read past the last number ends."""
    todo, todo_w = os.pipe()
    # at most _JOBS two-byte numbers: one write, which any pipe takes whole
    os.write(todo_w, struct.pack(f"{jobs}H", *reversed(range(jobs))))
    os.close(todo_w)
    return todo


def _untaken(queue: int) -> int:
    """How many jobs no child has taken: always the first ones."""
    size = fcntl.ioctl(queue, termios.FIONREAD, bytes(4))
    return struct.unpack("i", size)[0] // 2


def _index(fd: int) -> dict:
    """job -> (``fd``, offset, size) of the text of each whole record in the
    spool ``fd``; a record cut short, by a child killed as it wrote, ends it."""
    where, offset, end = {}, 0, os.fstat(fd).st_size
    while offset + _HEADER.size <= end:
        job, size = _HEADER.unpack(os.pread(fd, _HEADER.size, offset))
        offset += _HEADER.size
        if offset + size > end:
            break
        where[job] = fd, offset, size
        offset += size
    return where


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


def _fork(jobs: list, queue: int, fh):
    """(pid, spool) of a forked child that takes jobs from ``queue`` until
    none is left and appends each to its spool, in the encoding of ``fh``;
    None where no spool or process can be made. A forked child reads the
    columns in place, where a spawned one would import numpy and receive a
    copy. Whatever it raises, the child leaves with ``os._exit``: it never
    returns into its parent's code, runs no exit handler, prints no traceback
    and flushes nothing of its parent's."""
    try:
        spool = tempfile.TemporaryFile()
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
            while number := os.read(queue, 2):
                job = struct.unpack("H", number)[0]
                text = "".join(_texts(jobs[job])).encode(fh.encoding, fh.errors)
                spool.write(_HEADER.pack(job, len(text)) + text)
                spool.flush()
            status = 0
        finally:
            os._exit(status)
    return pid, spool
