"""Test-suite oracles for the objectives: analytic minibatch gradients, checked
against central differences and used as ground truth for the zeroth-order
gradient estimates, a standalone one-minibatch objective that the stacked
evaluator's dense values must equal bit for bit, and a per-candidate lookup
that the stacked evaluator's planned mixture candidates must equal."""
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
    copy of all M*b rows, and every candidate's unique coordinates, unit
    draw, CSC entries and touched rows (np.unique) looked up at its values
    call. A mixture candidate's plan is its own (cols, terms), the row of
    mixture_draws that made it. Its arithmetic is the planned-delta form:
    each touched row's shift is its entries times the unit draw summed in
    entry order (column by column), the row's margin is the kept one plus
    the step times its shift, and its loss change is taken from the losses
    of the two margins. The planned evaluator, in every plan block of either
    kind, must equal it bit for bit. Dense and unplanned candidates, and
    candidates with no kept cache, take StackedBatch's own path."""

    @cached_property
    def _csc(self) -> sp.csc_matrix:
        csc = self._X.tocsc()
        csc.data *= self._y[csc.indices]
        return csc

    def values(self, V: np.ndarray, step=None, planned=None, before=None) -> np.ndarray:
        if planned is None or before is None or self._a is None:
            return super().values(V, step, planned, before)
        self.obj.eval_counter += len(self.rows)
        drawn, terms = planned
        cols, first, inverse = np.unique(drawn, return_index=True, return_inverse=True)
        unit = np.bincount(inverse, weights=terms)  # repeats' terms in draw order
        pos, counts = column_entries(self._csc.indptr, cols)
        touched, entry = np.unique(self._csc.indices[pos], return_inverse=True)
        shifts = np.bincount(entry, weights=self._csc.data[pos] * np.repeat(unit, counts),
                             minlength=len(touched))
        kept = self._a[touched]
        a = kept + step * shifts
        if not math.isfinite(np.add.reduce(a)):
            bad = np.flatnonzero(~np.isfinite(a))
            a[bad] = self._y[touched[bad]] * (self._X[touched[bad]] @ V.reshape(-1))
        loss, owner = _loss_values(self.obj.loss_kind, a), touched // self.b
        sums = self._sums + np.bincount(owner, weights=loss - _loss_values(self.obj.loss_kind, kept),
                                        minlength=self.workers)
        if not math.isfinite(np.add.reduce(sums)):
            whole = _loss_values(self.obj.loss_kind, self._a)
            whole[touched] = loss
            sums = np.add.reduce(whole.reshape(-1, self.b), axis=1)
        old, new = before[first], V.reshape(-1)[cols]
        sq = self._sq + np.bincount(cols // self.n, weights=new * new - old * old,
                                    minlength=self.workers)
        self._candidate = (touched, owner, a, sums, sq)
        return sums / self.b + 0.5 * self.obj.reg * sq


def column_entries(indptr: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the given (nonempty list of) columns' entries in a CSC
    matrix, column by column in stored order, and each column's entry count."""
    starts = indptr[cols]
    counts = indptr[cols + 1] - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts), counts
