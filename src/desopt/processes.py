"""Process plumbing shared by `desopt run --threads`, parse_libsvm and
run_des's round-prep helper: how many processes a job may use,
forked children that report over one-way pipes, and the one format in which
arrays cross those pipes, framed by desopt itself on the pipes' file
descriptors and read straight into the arrays' memory.

Fork, not spawn, so that a child shares what the calling process has loaded
without pickling it; desopt starts no Python thread, and OpenBLAS shuts its own
pool down at fork.
"""
from __future__ import annotations

import fcntl
import multiprocessing
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


def process_count(jobs: int) -> int:
    """Processes for `jobs` independent jobs, the calling process included:
    one per usable CPU that no running child of this process (a `desopt run`
    worker, say) already holds, capped at the job count, and at least 1. A
    daemonic process (a multiprocessing.Pool worker, say) may not have
    children, so it runs its jobs alone."""
    if multiprocessing.current_process().daemon:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, (cpus or 1) - len(multiprocessing.active_children())))


# The capacity forked() asks for its pipes, in bytes, and the most that
# send_arrays writes or recv_arrays reads at once: a child then runs up to
# this far ahead of its reader without stalling at every 64 KB (Linux's
# default), and a reader takes a read of this size without waiting for the
# child in between. run_des's round-prep helper sends about 0.9 MB a round
# on the benchmark's sparse mixture workload, and about 1.61 MB (its draws
# and their products) on des-dense-small.
PIPE_BYTES = 2**20


@contextmanager
def forked(count: int, work: Callable[[int, Connection], None]) -> Iterator[list]:
    """Fork `count` children; child k (1..count) runs work(k, writer) and exits,
    `writer` being the sending end of its own one-way pipe of PIPE_BYTES
    (where the system grants it; Linux's F_SETPIPE_SZ).

    Yields each child's (process, reader) pair in order. The parent closes its
    copy of each writer at once, so a reader sees EOF when its child dies. A
    child that cannot be forked is None in its pair, and its reader sees EOF
    at once. On leaving the block, however that happens, every child still
    running is terminated and every child is joined: none outlives the block.
    """
    context = multiprocessing.get_context("fork")
    children, readers = [], []
    try:
        for k in range(1, count + 1):
            reader, writer = context.Pipe(duplex=False)
            readers.append(reader)
            with suppress(AttributeError, OSError):  # not Linux, or above this user's limit
                fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            with writer:
                child = context.Process(target=work, args=(k, writer), daemon=True)
                fds = _open_fds()
                try:
                    child.start()
                except OSError:  # no fork (EAGAIN, ENOMEM): as if the child died at once
                    # multiprocessing's fork Popen leaks the two pipes it opened before
                    # os.fork: close what start opened (no desopt thread opens one meanwhile)
                    for fd in _open_fds() - fds:
                        os.close(int(fd))
                    child = None
            children.append(child)
        yield list(zip(children, readers))
    finally:
        for child in filter(None, children):
            if child.is_alive():
                child.terminate()
            child.join()
        for reader in readers:
            reader.close()


def _open_fds() -> set:
    """Open file descriptors (none without /proc/self/fd; not the listing's own)."""
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else ()
    return {fd for fd in fds if os.path.lexists(f"/proc/self/fd/{fd}")}


def send_arrays(writer: Connection, arrays) -> None:
    """Send a sequence of arrays for recv_arrays down writer's file
    descriptor; each arrives flattened.

    A header of int64s comes first: the array count, then each array's dtype
    character and size. The arrays' bytes follow, taken from the arrays
    themselves, in writes of at most PIPE_BYTES."""
    arrays = [np.ravel(a) for a in arrays]
    head = [len(arrays), *(n for a in arrays for n in (ord(a.dtype.char), a.size))]
    arrays.insert(0, np.array(head, dtype=np.int64))
    if _moved(os.writev, writer.fileno(), arrays) < sum(a.nbytes for a in arrays):
        raise OSError("pipe closed during message")


def recv_arrays(reader: Connection, into=None) -> list:
    """The arrays of one send_arrays call, 1-d, read off reader's file
    descriptor straight into their memory. Array k is received into a new
    array or, given into, into the front of the 1-d array into[k], of which
    it is then a view; no read is longer than PIPE_BYTES. Raises ValueError
    when into[k] has another dtype or too little room, EOFError once the
    sender has closed its end or died between two calls, and OSError if it
    died part-way through one."""
    fd = reader.fileno()
    count = np.zeros(1, np.int64)
    _read(fd, [count], boundary=True)
    head = np.zeros((int(count[0]), 2), np.int64)
    _read(fd, [head])
    arrays = []
    for k, (char, length) in enumerate(head.tolist()):
        dtype = np.dtype(chr(char))
        a = np.empty(length, dtype) if into is None else into[k][:length]
        if a.dtype != dtype or a.size != length:
            raise ValueError(f"array {k} of {length} {dtype} does not fit into "
                             f"{into[k].size} {into[k].dtype}")
        arrays.append(a)
    _read(fd, arrays)
    return arrays


def _read(fd: int, arrays, boundary: bool = False) -> None:
    """Fill the arrays from fd: EOF before the first byte at a boundary
    between two send_arrays calls is EOFError, any other EOF OSError."""
    got = _moved(os.readv, fd, arrays)
    if got < sum(a.nbytes for a in arrays):
        if boundary and not got:
            raise EOFError
        raise OSError("got end of file during message")


def _moved(call, fd: int, arrays) -> int:
    """Move the bytes of the contiguous arrays, in order, by calls of
    call(fd, buffers) (os.readv or os.writev), each over at most PIPE_BYTES
    and the system's most buffers a call, until all have moved or a call
    moves none; returns the bytes moved."""
    views = [a.reshape(-1).view(np.uint8) for a in arrays if a.nbytes]
    limit = os.sysconf("SC_IOV_MAX")
    done = k = at = 0  # bytes moved; the view, and the offset in it, where the next call starts
    while k < len(views):
        buffers, room, start = [], PIPE_BYTES, at
        for view in views[k:k + limit]:
            buffers.append(view[start:start + room])
            room, start = room - buffers[-1].size, 0
            if not room:
                break
        moved = call(fd, buffers)
        if not moved:
            break
        done, at = done + moved, at + moved
        while k < len(views) and at >= views[k].size:
            at -= views[k].size
            k += 1
    return done
