"""Test-suite oracles for the objectives: analytic minibatch gradients, checked
against central differences and used as ground truth for the zeroth-order
gradient estimates, and the stacked evaluator's unplanned mixture path."""
from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from desopt.objective import BatchView, LossKind, StackedBatch, _loss_values


def loss_margin_grad(kind: LossKind, a: np.ndarray) -> np.ndarray:
    """d(loss)/da at the signed margin; hinge kink (a = 1) takes 0."""
    if kind is LossKind.LR:
        return -expit(-a)
    if kind is LossKind.NSVM:
        t = np.tanh(a)
        return -(1.0 - t * t)
    return np.where(a < 1.0, -1.0, 0.0)


def batch_gradient(view: BatchView, x: np.ndarray) -> np.ndarray:
    """Exact gradient of view's objective at x (subgradient for the hinge)."""
    x = np.asarray(x, dtype=np.float64)
    coef = view._y * loss_margin_grad(view.obj.loss_kind, view._margins(x))
    return np.asarray(view._X.T @ coef) / view.b + view.obj.reg * x


class UnplannedStackedBatch(StackedBatch):
    """StackedBatch scoring each mixture candidate on its own: a y-scaled CSC
    copy of all M*b rows, and every candidate's unique coordinates and CSC
    entries looked up at its values call. plan only queues the candidates'
    coordinates. The planned evaluator must equal it bit for bit."""

    def plan(self, cols: np.ndarray) -> None:
        self._queued = iter(np.asarray(cols, dtype=np.int64))

    @cached_property
    def _csc(self) -> sp.csc_matrix:
        csc = self._X.tocsc()
        csc.data *= self._y[csc.indices]
        return csc

    def values(self, V: np.ndarray, before: np.ndarray | None = None) -> np.ndarray:
        if before is None:
            return super().values(V)
        self.obj.eval_counter += self._X.shape[0]
        if self._a is None:
            raise ValueError("mixture candidates need reset(V) first, and again after a dense one")
        cols, first = np.unique(next(self._queued), return_index=True)
        old, new = before[first], V.reshape(-1)[cols]
        pos, counts = column_entries(self._csc.indptr, cols)
        entry_rows = self._csc.indices[pos]
        hit = np.zeros(len(self._a), dtype=bool)
        hit[entry_rows] = True
        rows = np.flatnonzero(hit)
        self._undo = (self._a.copy(), self._loss.copy(), self._sq.copy())
        np.add.at(self._a, entry_rows, self._csc.data[pos] * np.repeat(new - old, counts))
        self._loss.reshape(-1)[rows] = _loss_values(self.obj.loss_kind, self._a[rows])
        self._sq += np.bincount(cols // self.n, weights=new * new - old * old,
                                minlength=len(self._sq))
        return self._worker_values(self._loss, self._sq)


def column_entries(indptr: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the given (nonempty list of) columns' entries in a CSC
    matrix, column by column in stored order, and each column's entry count."""
    starts = indptr[cols]
    counts = indptr[cols + 1] - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts), counts
