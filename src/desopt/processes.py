"""Process plumbing shared by `desopt run --threads` and parse_libsvm: how many
processes a job may use, and forked children that report over one-way pipes.

Fork, not spawn, so that a child shares what the calling process has loaded
without pickling it; desopt starts no Python thread, and OpenBLAS shuts its own
pool down at fork.
"""
from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


def process_count(jobs: int) -> int:
    """Processes for `jobs` independent jobs: one per usable CPU, capped at the
    job count. A daemonic process (a multiprocessing.Pool worker, say) may not
    have children, so it runs its jobs alone."""
    if multiprocessing.current_process().daemon:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, cpus or 1))


@contextmanager
def forked(count: int, work: Callable[[int, Connection], None]) -> Iterator[list]:
    """Fork `count` children; child k (1..count) runs work(k, writer) and exits,
    `writer` being the sending end of its own one-way pipe.

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
