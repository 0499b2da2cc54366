"""Shared test utilities: dense-backed datasets, scripted RNG stand-ins and
a process start that fails."""
from __future__ import annotations

import errno
import multiprocessing

import numpy as np
import scipy.sparse as sp

from desopt import Dataset, ServerState


def initial_state(n: int) -> ServerState:
    """The server state before round 1: x and m at zero."""
    return ServerState(x=np.zeros(n), m=np.zeros(n), t=0)


def refuse_forks(monkeypatch) -> list:
    """Make every Process.start raise EAGAIN, as fork does under a pid
    limit, and record each process refused; no process starts."""
    refused = []

    def start(process):
        refused.append(process)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return refused


def dataset_from_dense(features: np.ndarray, labels) -> Dataset:
    return Dataset(sp.csr_matrix(np.asarray(features, dtype=float)), np.asarray(labels, dtype=float))


class ScriptedGen:
    """Replays queued arrays for standard_normal/integers calls."""

    def __init__(self, normals=(), ints=()):
        self.normals = [np.asarray(a, dtype=float) for a in normals]
        self.ints = [np.asarray(a, dtype=np.int64) for a in ints]

    def standard_normal(self, size=None):
        shape = tuple(np.atleast_1d(size))
        if len(shape) == 2 and self.normals[0].shape == shape[1:]:
            # a (k, n) block is the next k draws of n, as a sequential stream serves it
            return np.stack([self.normals.pop(0) for _ in range(shape[0])])
        out = self.normals.pop(0)
        if size is not None and out.shape != (np.prod(np.atleast_1d(size)),) and out.shape != tuple(np.atleast_1d(size)):
            raise AssertionError(f"scripted normal shape {out.shape} vs requested {size}")
        return out

    def integers(self, low, high=None, size=None):
        return self.ints.pop(0)


class ScriptedStream:
    def __init__(self, gen: ScriptedGen):
        self.gen = gen

