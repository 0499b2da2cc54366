"""Process plumbing shared by `desopt run --threads`, parse_libsvm and
run_des's round-prep helper: how many processes a job may use,
forked children that report over one-way pipes, and the one format in which
arrays cross those pipes.

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


# The capacity forked() asks for its pipes, in bytes: a child then runs up to
# this far ahead of its reader without stalling at every 64 KB (Linux's
# default), and a reader takes a message of this size without waiting for the
# child between reads. run_des's round-prep helper sends about 0.9 MB a round
# on the benchmark's sparse mixture workload, and about 0.81 MB (its draws)
# on des-dense-small.
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
    """Send a sequence of arrays for recv_arrays; each arrives flattened.

    A header message holds each array's dtype character and size; each
    array's bytes follow, taken from the array itself, in messages of at
    most PIPE_BYTES."""
    arrays = [np.ravel(a) for a in arrays]
    writer.send_bytes(np.array([(ord(a.dtype.char), a.size) for a in arrays],
                               dtype=np.int64).tobytes())
    for a in arrays:
        for at in range(0, a.nbytes, PIPE_BYTES):
            writer.send_bytes(a, at, min(PIPE_BYTES, a.nbytes - at))


def recv_arrays(reader: Connection, into=None) -> list:
    """The arrays of one send_arrays call, 1-d. Array k is received into a
    new array or, given into, straight into the front of the 1-d array
    into[k], of which it is then a view; no message read is longer than
    PIPE_BYTES. Raises ValueError when into[k] has another dtype or too
    little room, and EOFError once the sender has closed its end or died
    (OSError if it died part-way through a message)."""
    head = np.frombuffer(reader.recv_bytes(PIPE_BYTES), dtype=np.int64).reshape(-1, 2).tolist()
    arrays = []
    for k, (char, length) in enumerate(head):
        dtype = np.dtype(chr(char))
        a = np.empty(length, dtype) if into is None else into[k][:length]
        if a.dtype != dtype or a.size != length:
            raise ValueError(f"array {k} of {length} {dtype} does not fit into "
                             f"{into[k].size} {into[k].dtype}")
        view = a.view(np.uint8)
        for at in range(0, a.nbytes, PIPE_BYTES):
            reader.recv_bytes_into(view[at:at + PIPE_BYTES])
        arrays.append(a)
    return arrays
