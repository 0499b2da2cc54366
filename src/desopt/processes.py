"""Process plumbing shared by `desopt run --threads`, parse_libsvm and
run_des's round-prep helper: how many processes a job may use,
forked children that report over one-way pipes, and the one format in which
arrays cross those pipes, framed by desopt itself on the pipes' file
descriptors and read straight into the arrays' memory. An array may instead
cross through a Ring, memory shared with the child: then the pipe carries
only its place there (the round-prep helper's arrays do).

Fork, not spawn, so that a child shares what the calling process has loaded
without pickling it; desopt starts no Python thread, and OpenBLAS shuts its own
pool down at fork.
"""
from __future__ import annotations

import fcntl
import mmap
import multiprocessing
import os
import select
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
# child in between. A parse child sends its whole range's arrays this way;
# run_des's round-prep helper sends headers here, and its arrays through a Ring
# unless a round outgrows it.
PIPE_BYTES = 2**20

# The bytes of a Ring: the least power of two that holds two rounds of the
# benchmark's des-dense-small (about 1.61 MB each: rows, 0.8 MB of draws and
# 0.8 MB of products) wherever they start, an array that does not fit before
# the ring's end skipping to its start, so that the round-prep helper can make
# the next round whole while the caller runs one.
RING_BYTES = 2**22


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


class Ring:
    """RING_BYTES of memory shared with the children forked after it is made
    (an anonymous shared mmap), through which one writing child hands arrays
    to its reader, the calling process, without copying them through a pipe,
    and an eventfd on which the reader hands back the bytes it is done with.

    Arrays are placed in the order written, each at a 64-byte boundary, from
    the ring's start again when one does not fit before its end; a place is
    an offset in that stream of bytes (modulo RING_BYTES in the ring). The
    writer groups its arrays in rounds (new_round) and places an array only
    where its round, with it, spans at most the ring: a round never waits
    for its own bytes, and an array that does not fit is sent by value. It
    waits only for bytes that earlier rounds hold, until the reader releases
    them (release: every array received so far), and gives up
    (BrokenPipeError) once the process that made the ring is gone. Views of
    released bytes must not be read again. A context manager: on leaving,
    the eventfd is closed and the mapping dropped, unmapped once no view of
    it is left.
    """

    def __init__(self):
        self.size = RING_BYTES
        self.buffer = mmap.mmap(-1, self.size)
        self.memory = np.frombuffer(self.buffer, np.uint8)
        self.event = os.eventfd(0, os.EFD_CLOEXEC)
        self.owner = os.getpid()
        self.written = self.freed = self.round = 0  # the writer's stream offsets
        self.received = self.released = 0  # the reader's

    def __enter__(self) -> "Ring":
        return self

    def __exit__(self, *exc) -> None:
        os.close(self.event)
        self.memory = None
        with suppress(BufferError):  # a view still alive keeps the mapping until it goes
            self.buffer.close()

    def place(self, a: np.ndarray) -> int:
        """The writer's offset of a copy of the 1-d array a placed now; -1
        if a is empty or does not fit beside its round."""
        start = self._reserve(a.nbytes) if a.nbytes else -1
        if start >= 0:
            self._at(start, a.nbytes, a.dtype)[...] = a
        return start

    def new_round(self) -> None:
        """Start the writer's next round: the arrays placed so far belong to
        earlier rounds."""
        self.round = self.written

    def view(self, start: int, nbytes: int, dtype) -> np.ndarray:
        """The reader's view of the nbytes placed at offset start."""
        self.received = max(self.received, start + nbytes)
        return self._at(start, nbytes, dtype)

    def release(self) -> None:
        """Hand the writer back the bytes of every array received so far."""
        if self.received > self.released:
            os.eventfd_write(self.event, self.received - self.released)
            self.released = self.received

    def _at(self, start: int, nbytes: int, dtype) -> np.ndarray:
        at = start % self.size
        return self.memory[at:at + nbytes].view(dtype)

    def _reserve(self, nbytes: int) -> int:
        """The offset of nbytes of the writer's next place, or -1 if they do
        not fit beside its round; waits for the reader to release what earlier
        rounds hold there."""
        start = -(-self.written // 64) * 64
        if start % self.size + nbytes > self.size:
            start += self.size - start % self.size
        end = start + nbytes
        if end - self.round > self.size:
            return -1
        while end - self.freed > self.size:
            # a reader that has died releases nothing: give up once it is gone
            waiting = select.poll()
            waiting.register(self.event, select.POLLIN)
            while not waiting.poll(1000):
                if os.getppid() != self.owner:
                    raise BrokenPipeError("the ring's reader has gone")
            self.freed += os.eventfd_read(self.event)
        self.written = end
        return start


def send_arrays(writer: Connection, arrays, ring: Ring | None = None) -> None:
    """Send a sequence of arrays for recv_arrays down writer's file
    descriptor; each arrives flattened.

    A header of int64s comes first: the array count, then each array's dtype
    character, size and place in ring (Ring.place), or -1 for an array sent
    by value: every array without a ring. The bytes of the arrays sent by
    value follow, taken from the arrays themselves, in writes of at most
    PIPE_BYTES."""
    arrays = [np.ravel(a) for a in arrays]
    places = [-1 if ring is None else ring.place(a) for a in arrays]
    head = [len(arrays), *(n for a, at in zip(arrays, places)
                           for n in (ord(a.dtype.char), a.size, at))]
    sent = [np.array(head, dtype=np.int64), *(a for a, at in zip(arrays, places) if at < 0)]
    if _moved(os.writev, writer.fileno(), sent) < sum(a.nbytes for a in sent):
        raise OSError("pipe closed during message")


def recv_arrays(reader: Connection, into=None, ring: Ring | None = None) -> list:
    """The arrays of one send_arrays call, 1-d: those sent through ring are
    views of it, the others read off reader's file descriptor straight into
    their memory. Array k is received into a new array or, given into, into
    the front of the 1-d array into[k], of which it is then a view; no read
    is longer than PIPE_BYTES. Raises ValueError when into[k] has another
    dtype or too little room, EOFError once the sender has closed its end or
    died between two calls, and OSError if it died part-way through one."""
    fd = reader.fileno()
    count = np.zeros(1, np.int64)
    _read(fd, [count], boundary=True)
    head = np.zeros((int(count[0]), 3), np.int64)
    _read(fd, [head])
    arrays, sent = [], []
    for k, (char, length, at) in enumerate(head.tolist()):
        dtype = np.dtype(chr(char))
        if at >= 0:
            arrays.append(ring.view(at, length * dtype.itemsize, dtype))
            continue
        a = np.empty(length, dtype) if into is None else into[k][:length]
        if a.dtype != dtype or a.size != length:
            raise ValueError(f"array {k} of {length} {dtype} does not fit into "
                             f"{into[k].size} {into[k].dtype}")
        arrays.append(a)
        sent.append(a)
    _read(fd, sent)
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
