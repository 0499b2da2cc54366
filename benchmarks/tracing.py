"""Span recording around desopt's public functions, installed from outside.

The wrappers replace module and class attributes for the duration of a traced
phase and put the originals back afterwards; nothing in the package changes.
Each thread keeps its own parent stack. A span opened on a pool thread whose
stack is empty takes as parent the innermost open span of the thread that
installed the recorder, which is blocked in the pool's map at that moment
(des_round and the baselines' rounds fork this way).
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module, attribute path, span name). A function imported into several
# modules is wrapped at every name the callers look it up by.
TARGETS = (
    ("desopt.localsolver", "draw_terms", "mutation.draw_terms"),
    ("desopt.objective", "BatchView.value", "objective.value"),
    ("desopt.objective", "BatchView.loss_sum_many", "objective.loss_sum_many"),
    ("desopt.objective", "RegularizedObjective.batch", "objective.batch"),
    ("desopt.objective", "RegularizedObjective.eval_full", "objective.eval_full"),
    ("desopt.server", "classification_error", "objective.classification_error"),
    ("desopt.baselines", "classification_error", "objective.classification_error"),
    ("desopt.server", "run_local_es", "localsolver.run_local_es"),
    ("desopt.server", "des_round", "server.des_round"),
    ("desopt.server", "average_displacement", "server.average_displacement"),
    ("desopt.server", "momentum_update", "server.momentum_update"),
    ("desopt.server", "run_des", "server.run_des"),
    ("desopt.cli", "run_des", "server.run_des"),
    ("desopt.baselines", "zo_grad_central", "baselines.zo_grad_central"),
    ("desopt.cli", "run_fed_zo_gd", "baselines.run_fed_zo_gd"),
    ("desopt.cli", "run_fed_zo_sgd", "baselines.run_fed_zo_sgd"),
    ("desopt.cli", "run_zo_signsgd", "baselines.run_zo_signsgd"),
    ("desopt.cli", "run_es_csa", "baselines.run_es_csa"),
    ("desopt.dataio", "parse_libsvm", "dataio.parse_libsvm"),
    ("desopt.cli", "parse_libsvm", "dataio.parse_libsvm"),
    ("desopt.dataio", "synth_dataset", "dataio.synth_dataset"),
    ("desopt.cli", "synth_dataset", "dataio.synth_dataset"),
    ("desopt.dataio", "split_train_test", "dataio.split_train_test"),
    ("desopt.cli", "split_train_test", "dataio.split_train_test"),
    ("desopt.server", "partition_uniform", "dataio.partition_uniform"),
    ("desopt.baselines", "partition_uniform", "dataio.partition_uniform"),
    ("desopt.cli", "write_metrics_csv", "bench.write_metrics_csv"),
    ("desopt.cli", "write_profiles_csv", "bench.write_profiles_csv"),
    ("desopt.cli", "compute_profiles", "bench.compute_profiles"),
    ("desopt.cli", "aggregate_runs", "bench.aggregate_runs"),
    ("desopt.cli", "run_matrix", "cli.run_matrix"),
    ("desopt.cli", "main", "cli.main"),
)


class Recorder:
    """Collects spans in memory; `run` labels the operation they belong to.

    `searches` holds (run, accepted, iterations) for every local search, taken
    from the WorkerResult that run_local_es returns.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.searches: list[tuple[str, int, int]] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()

    def _stack(self, thread: int) -> list[int]:
        stack = self._stacks.get(thread)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(thread, [])
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stack(thread)
            home = self._stacks.get(self._home)
            parent = stack[-1] if stack else (home[-1] if home else None)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.run, thread))
            if name == "localsolver.run_local_es":
                self.searches.append((self.run, result.accepted_count, args[1].iters))
            return result

        return traced


class installed:
    """Context manager that swaps every TARGETS attribute for its traced wrapper."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved = []

    def __enter__(self) -> Recorder:
        for module_name, path, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(span_name, original))
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's
    intervals, clipped to the span. Children on other threads may overlap
    each other; the union counts such overlap once."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ())
            if c.end > span.start and c.start < span.end
        ]
        out[span.sid] = span.duration - covered(clipped)
    return out
