"""Process plumbing shared by `desopt run --threads`, parse_libsvm and
run_des's round-prep helper: how many processes a job may use,
forked children that report over one-way pipes, and arrays sent over those
pipes as one packed message each.

Fork, not spawn, so that a child shares what the calling process has loaded
without pickling it; desopt starts no Python thread, and OpenBLAS shuts its own
pool down at fork.
"""
from __future__ import annotations

import fcntl
import multiprocessing
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
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
# child between reads. run_des's round-prep helper sends about 1.2 MB a round
# on the benchmark's sparse mixture workload.
PIPE_BYTES = 2**20


@contextmanager
def forked(count: int, work: Callable[[int, Connection], None]) -> Iterator[list]:
    """Fork `count` children; child k (1..count) runs work(k, writer) and exits,
    `writer` being the sending end of its own one-way pipe of PIPE_BYTES
    (where the system grants it; Linux's F_SETPIPE_SZ).

    Yields each child's (process, reader) pair in order. The parent closes its
    copy of each writer at once, so a reader sees EOF when its child dies. On
    leaving the block, however that happens, every child still running is
    terminated and every child is joined: none outlives the block.
    """
    context = multiprocessing.get_context("fork")
    children, readers = [], []
    try:
        for k in range(1, count + 1):
            reader, writer = context.Pipe(duplex=False)
            readers.append(reader)
            if hasattr(fcntl, "F_SETPIPE_SZ"):
                try:
                    fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
                except OSError:
                    pass  # above this user's limit: the pipe keeps its default size
            with writer:
                child = context.Process(target=work, args=(k, writer), daemon=True)
                child.start()
            children.append(child)
        yield list(zip(children, readers))
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()
            child.join()
        for reader in readers:
            reader.close()


def send_arrays(writer: Connection, arrays) -> None:
    """Send a sequence of arrays, any of them None, as one message; each
    arrives flattened.

    The header holds the count, then each array's dtype character and size
    (-1 for None); each array's bytes follow, padded to 8 bytes, so that
    recv_arrays can view them in place."""
    head = [len(arrays)]
    parts = []
    for a in arrays:
        if a is None:
            head += [0, -1]
            continue
        a = np.ascontiguousarray(a)
        head += [ord(a.dtype.char), a.size]
        parts += [a.tobytes(), bytes(-a.nbytes % 8)]
    writer.send_bytes(b"".join([np.array(head, dtype=np.int64).tobytes(), *parts]))


def recv_arrays(reader: Connection) -> list:
    """The arrays of one send_arrays message, 1-d, as read-only views of it.
    Raises EOFError once the sender has closed its end or died (OSError if
    it died part-way through the message)."""
    buf = reader.recv_bytes()
    count = int(np.frombuffer(buf, dtype=np.int64, count=1)[0])
    head = np.frombuffer(buf, dtype=np.int64, count=1 + 2 * count)[1:].tolist()
    offset = 8 * (1 + 2 * count)
    arrays = []
    for char, length in zip(head[::2], head[1::2]):
        if length < 0:
            arrays.append(None)
            continue
        dtype = np.dtype(chr(char))
        arrays.append(np.frombuffer(buf, dtype=dtype, count=length, offset=offset))
        offset += -(-length * dtype.itemsize // 8) * 8
    return arrays
