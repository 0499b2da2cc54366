"""A recording evaluator: the local solver seen through its evaluator calls.

run_lockstep_es reports nothing per iteration; it only calls its evaluator,
values once an iteration and then keep. recording(evaluator) is a subclass of
any evaluator class (StackedBatch, UnplannedStackedBatch,
localsolver.CallableBatch) that logs those calls. Put it in place of the class
where the solver's caller finds it (server.StackedBatch,
localsolver.CallableBatch) with monkeypatch; every evaluator it makes that
scores a candidate is then appended to its class's made list, in the order of
their first values calls (a round's blocks come from an instance that scores
none).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Step:
    """One solver iteration as the evaluator saw it: the M x n candidates
    scored, their values, the mask passed to keep, and the kept points after
    it (None if the evaluator was never reset, so it never saw them)."""

    candidates: np.ndarray
    values: np.ndarray
    accepted: np.ndarray | None = None
    kept: np.ndarray | None = None


def recording(evaluator):
    """A subclass of evaluator that logs each iteration. An instance holds
    start, the values reset returned (None if not reset), and steps, one Step
    an iteration. At keep time the points passed to reset hold the kept
    points: a mixture candidate is made in them in place and its rejected
    slots are restored before keep, and a dense iteration copies its accepted
    candidates into them before keep."""

    class Recording(evaluator):
        made = []

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.start, self.steps, self.points = None, [], None

        def reset(self, V, *args, **kwargs):
            self.points = V
            self.start = super().reset(V, *args, **kwargs)
            return self.start

        def values(self, V, *args, **kwargs):
            f = super().values(V, *args, **kwargs)
            if not self.steps:
                Recording.made.append(self)
            self.steps.append(Step(V.copy(), f.copy()))
            return f

        def keep(self, accepted):
            super().keep(accepted)
            self.steps[-1].accepted = accepted.copy()
            self.steps[-1].kept = None if self.points is None else self.points.copy()

        def kept_values(self, start=None):
            """The solver's values after each step, where(accepted, values,
            previous), from start (reset's values if not given); K x M."""
            f = np.asarray(self.start if start is None else start, dtype=np.float64)
            out = []
            for step in self.steps:
                f = np.where(step.accepted, step.values, f)
                out.append(f)
            return np.array(out)

    return Recording
