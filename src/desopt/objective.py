"""Regularized finite-sum losses over sparse data.

Three binary-classification losses (logistic, nonconvex SVM, hinge SVM) with
an L2 regularizer. Minibatches are plain arrays of row indices into a Dataset
(duplicates allowed, matching with-replacement draws).
"""
from __future__ import annotations

from enum import Enum

import numpy as np
import scipy.sparse as sp


class LossKind(Enum):
    LR = "LR"
    NSVM = "NSVM"
    LSVM = "LSVM"


class Dataset:
    """Immutable sparse dataset: a CSR matrix of features and ±1 labels."""

    def __init__(self, matrix: sp.csr_matrix, labels: np.ndarray):
        matrix = sp.csr_matrix(matrix)
        matrix.sort_indices()
        labels = np.asarray(labels, dtype=np.float64)
        if matrix.shape[0] == 0:
            raise ValueError("dataset must be nonempty")
        if matrix.shape[0] != labels.shape[0]:
            raise ValueError("label count does not match example count")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not np.all(np.isfinite(matrix.data)):
            raise ValueError("feature values must be finite")
        self.matrix = matrix
        self.labels = labels

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=np.int64)
        sub = self.matrix[rows]
        sub = sp.csr_matrix((sub.data, sub.indices, sub.indptr), shape=(len(rows), self.n_features))
        return Dataset(sub, self.labels[rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.matrix.shape == other.matrix.shape
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.matrix.indptr, other.matrix.indptr)
            and np.array_equal(self.matrix.indices, other.matrix.indices)
            and np.array_equal(self.matrix.data, other.matrix.data)
        )


def _loss_values(kind: LossKind, a: np.ndarray) -> np.ndarray:
    """Per-example loss from the signed margin a = y * (x . z)."""
    if kind is LossKind.LR:
        # log(1 + exp(-a)) computed without overflow for large |a|
        return np.logaddexp(0.0, -a)
    if kind is LossKind.NSVM:
        return 1.0 - np.tanh(a)
    return np.maximum(0.0, 1.0 - a)


class BatchView:
    """The fixed-minibatch objective f_i: rows sliced once, evaluated many times.

    Every value/loss evaluation charges len(rows) samples to the parent
    objective's instrumented counter.
    """

    def __init__(self, obj: "RegularizedObjective", rows):
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
        a = self._margins(x)
        self.obj.eval_counter += self.b
        return float(np.mean(_loss_values(self.obj.loss_kind, a))) + self.obj._reg_term(x)

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


class StackedBatch:
    """The M same-size minibatch objectives of one round, evaluated together at
    the M rows of a stacked point array V (M x n).

    rows holds worker i's minibatch (row indices into obj.dataset) in row i.
    One gather of all M*b rows makes a block-diagonal CSR whose block i acts
    on row i of V (columns offset by i*n), and an M x b cache holds the
    per-row losses of the kept points. A candidate that changes only a few
    coordinates recomputes just the batch rows those columns touch, found
    through a CSC copy. When the changed columns hold more entries than a
    quarter of the M*b rows, gathering those rows costs about as much as the
    full stacked matvec, which then runs instead. Each worker value is
    mean(loss row) plus the regularizer, the same operations as
    BatchView.value, so the values match it bit for bit.
    """

    def __init__(self, obj: "RegularizedObjective", rows):
        rows = np.asarray(rows, dtype=np.int64)
        self.obj = obj
        workers, self.b = rows.shape
        rows = rows.reshape(-1)
        X = obj.dataset.matrix[rows]
        n = obj.dataset.n_features
        shape = (workers * self.b, workers * n)
        # int32 indices, the dtype scipy would pick anyway, skip its content scan
        index = np.int32 if max(*shape, X.nnz) <= np.iinfo(np.int32).max else np.int64
        offsets = np.repeat(np.arange(workers, dtype=index) * index(n), np.diff(X.indptr[::self.b]))
        self._X = sp.csr_matrix((X.data, X.indices.astype(index, copy=False) + offsets,
                                 X.indptr.astype(index, copy=False)), shape=shape)
        self._csc = self._X.tocsc()
        self._y = obj.dataset.labels[rows]
        self._loss = None
        self._undo = None

    def _all_rows(self, V: np.ndarray) -> np.ndarray:
        a = self._y * (self._X @ V.reshape(-1))
        return _loss_values(self.obj.loss_kind, a).reshape(-1, self.b)

    def _some_rows(self, V: np.ndarray, rows: np.ndarray) -> np.ndarray:
        pos, indptr = _slices(self._X.indptr, rows)
        sub = sp.csr_matrix((self._X.data[pos], self._X.indices[pos], indptr),
                            shape=(len(rows), self._X.shape[1]))
        return _loss_values(self.obj.loss_kind, self._y[rows] * (sub @ V.reshape(-1)))

    def _worker_values(self, V: np.ndarray) -> np.ndarray:
        return self._loss.mean(axis=1) + np.array([self.obj._reg_term(v) for v in V])

    def reset(self, V: np.ndarray) -> np.ndarray:
        """Worker values at V, uncounted; V becomes the kept points."""
        self._loss = self._all_rows(V)
        return self._worker_values(V)

    def values(self, V: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Worker values at the candidates V, charging M*b evaluations.

        cols lists the flat coordinates (row i, column j as i*n + j, repeats
        allowed) where V may differ from the kept points; None means anywhere.
        """
        total = self._X.shape[0]
        self.obj.eval_counter += total
        rows = None
        if cols is not None:
            touched = self._csc.indptr[cols + 1] - self._csc.indptr[cols]
            if touched.sum() <= total // 4:
                hit = np.zeros(total, dtype=bool)
                hit[self._csc.indices[_slices(self._csc.indptr, cols)[0]]] = True
                rows = np.flatnonzero(hit)
        if rows is None:
            self._undo = (None, self._loss)
            self._loss = self._all_rows(V)
        else:
            flat = self._loss.reshape(-1)
            self._undo = (rows, flat[rows])
            flat[rows] = self._some_rows(V, rows)
        return self._worker_values(V)

    def keep(self, accepted: np.ndarray) -> None:
        """Keep the last candidates of the accepted workers; restore the rest."""
        rows, old = self._undo
        rejected = ~accepted
        if rows is None:
            self._loss[rejected] = old[rejected]
        else:
            back = rejected[rows // self.b]
            self._loss.reshape(-1)[rows[back]] = old[back]


def _slices(indptr: np.ndarray, majors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the given rows (CSR) or columns (CSC) of a compressed matrix sit:
    the positions of their entries in stored order, and the indptr of the
    matrix made of just those slices."""
    starts = indptr[majors]
    lengths = indptr[majors + 1] - starts
    sub_indptr = np.zeros(len(majors) + 1, dtype=indptr.dtype)
    np.cumsum(lengths, out=sub_indptr[1:])
    return np.arange(sub_indptr[-1]) + np.repeat(starts - sub_indptr[:-1], lengths), sub_indptr


class RegularizedObjective:
    """A loss kind + L2 regularizer over one dataset, with eval instrumentation.

    ``eval_counter`` tracks the number of per-sample loss evaluations made
    through batch views; full-dataset metric evaluations are deliberately not
    counted (they are reporting, not search).
    """

    def __init__(self, loss_kind: LossKind, dataset: Dataset, reg: float = 1e-6):
        if reg < 0:
            raise ValueError("regularization must be nonnegative")
        self.loss_kind = loss_kind
        self.dataset = dataset
        self.reg = float(reg)
        self.eval_counter = 0

    def _reg_term(self, x: np.ndarray) -> float:
        return 0.5 * self.reg * float(np.dot(x, x))

    def batch(self, rows) -> BatchView:
        return BatchView(self, rows)

    def eval_full(self, x: np.ndarray) -> float:
        """Full-dataset objective f(x). Metric path, not counted."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dataset.n_features,):
            raise ValueError(
                f"x has shape {x.shape}, dataset dimension is {self.dataset.n_features}"
            )
        a = self.dataset.labels * (self.dataset.matrix @ x)
        return float(np.mean(_loss_values(self.loss_kind, a))) + self._reg_term(x)


def classification_error(x: np.ndarray, dataset: Dataset) -> float:
    """Fraction of examples misclassified by sign(x . z), ties predicting +1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dataset.n_features,):
        raise ValueError(f"x has shape {x.shape}, dataset dimension is {dataset.n_features}")
    margins = dataset.matrix @ x
    pred = np.where(margins >= 0.0, 1.0, -1.0)
    return float(np.mean(pred != dataset.labels))
