"""Test-suite oracles for the objectives: analytic minibatch gradients, checked
against central differences and used as ground truth for the zeroth-order
gradient estimates, a standalone one-minibatch objective that the stacked
evaluator's dense values must equal bit for bit, and the stacked evaluator's
unplanned mixture path."""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from desopt.objective import LossKind, RegularizedObjective, StackedBatch, _loss_values


def loss_margin_grad(kind: LossKind, a: np.ndarray) -> np.ndarray:
    """d(loss)/da at the signed margin; hinge kink (a = 1) takes 0."""
    if kind is LossKind.LR:
        return -expit(-a)
    if kind is LossKind.NSVM:
        t = np.tanh(a)
        return -(1.0 - t * t)
    return np.where(a < 1.0, -1.0, 0.0)


def batch_gradient(view, x: np.ndarray) -> np.ndarray:
    """Exact gradient at x (subgradient for the hinge) of the objective of a
    one-minibatch view: a BatchView or a ReferenceBatchView."""
    x = np.asarray(x, dtype=np.float64)
    coef = view._y * loss_margin_grad(view.obj.loss_kind, view._y * (view._X @ x))
    return np.asarray(view._X.T @ coef) / view.b + view.obj.reg * x


class ReferenceBatchView:
    """The fixed-minibatch objective f_i: rows sliced once, evaluated many times.

    Every value/loss evaluation charges len(rows) samples to the parent
    objective's instrumented counter.
    """

    def __init__(self, obj: RegularizedObjective, rows):
        self.obj = obj
        self.rows = np.asarray(rows, dtype=np.int64)
        if len(self.rows) < 1:
            raise ValueError("minibatch must contain at least one example")
        self._X = obj.dataset.matrix[self.rows]
        self._y = obj.dataset.labels[self.rows]
        self.b = len(self.rows)

    def _margins(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.obj.dataset.n_features,):
            raise ValueError(
                f"x has shape {x.shape}, dataset dimension is {self.obj.dataset.n_features}"
            )
        return self._y * (self._X @ x)

    def value(self, x: np.ndarray) -> float:
        """Mean batch loss plus the L2 regularizer."""
        self.obj.eval_counter += self.b
        return self.peek_value(x)

    def peek_value(self, x: np.ndarray) -> float:
        """Same as value() but without charging the counter.

        Reserved for the cached-parent evaluation at the start of a local
        round, which sits outside the per-candidate evaluation budget.
        """
        a = self._margins(x)
        return float(np.mean(_loss_values(self.obj.loss_kind, a))) + self.obj._reg_term(x)

    def loss_sum_many(self, points: np.ndarray) -> np.ndarray:
        """Unregularized loss sums for several points at once, shape (q,)."""
        points = np.asarray(points, dtype=np.float64)
        margins = self._y[:, None] * (self._X @ points.T)
        self.obj.eval_counter += self.b * points.shape[0]
        return np.sum(_loss_values(self.obj.loss_kind, margins), axis=0)


class UnplannedStackedBatch(StackedBatch):
    """StackedBatch scoring each mixture candidate on its own: a y-scaled CSC
    copy of all M*b rows, and every candidate's unique coordinates, CSC
    entries and touched rows (np.unique) looked up at its values call. plan
    only queues the candidates' coordinates. The planned evaluator, in every
    plan block of either kind, must equal it bit for bit."""

    def plan(self, cols: np.ndarray, blocks=None) -> None:
        self._queued = iter(np.asarray(cols, dtype=np.int64))

    @cached_property
    def _csc(self) -> sp.csc_matrix:
        csc = self._X.tocsc()
        csc.data *= self._y[csc.indices]
        return csc

    def values(self, V: np.ndarray, before: np.ndarray | None = None) -> np.ndarray:
        if before is None:
            return super().values(V)
        if self._a is None:
            raise ValueError("mixture candidates need reset(V) first, and again after a dense one")
        cols, first = np.unique(next(self._queued), return_index=True)
        self.obj.eval_counter += len(self.rows)
        old, new = before[first], V.reshape(-1)[cols]
        pos, counts = column_entries(self._csc.indptr, cols)
        entry_rows = self._csc.indices[pos]
        touched = np.unique(entry_rows)
        self._undo = (touched, self._a[touched], self._loss[touched], self._sums, self._sq)
        np.add.at(self._a, entry_rows, self._csc.data[pos] * np.repeat(new - old, counts))
        fresh = _loss_values(self.obj.loss_kind, self._a[touched])
        self._sums = self._sums + np.bincount(touched // self.b, weights=fresh - self._undo[2],
                                              minlength=self.workers)
        self._loss[touched] = fresh
        # the evaluator's test and recompute
        if not (math.isfinite(np.add.reduce(self._a[touched]))
                and math.isfinite(np.add.reduce(self._sums))):
            bad = np.flatnonzero(~np.isfinite(self._a))
            self._a[bad] = self._y[bad] * (self._X[bad] @ V.reshape(-1))
            self._loss[bad] = _loss_values(self.obj.loss_kind, self._a[bad])
            self._sums = np.add.reduce(self._loss.reshape(-1, self.b), axis=1)
        self._sq = self._sq + np.bincount(cols // self.n, weights=new * new - old * old,
                                          minlength=self.workers)
        return self._sums / self.b + 0.5 * self.obj.reg * self._sq


def column_entries(indptr: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the given (nonempty list of) columns' entries in a CSC
    matrix, column by column in stored order, and each column's entry count."""
    starts = indptr[cols]
    counts = indptr[cols + 1] - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts), counts
