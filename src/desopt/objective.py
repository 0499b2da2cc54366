"""Regularized finite-sum losses over sparse data.

Three binary-classification losses (logistic, nonconvex SVM, hinge SVM) with
an L2 regularizer. Minibatches are plain arrays of row indices into a Dataset
(duplicates allowed, matching with-replacement draws).
"""
from __future__ import annotations

from enum import Enum

import numpy as np
import scipy.sparse as sp

# The most CSC entries StackedBatch slices out of a plan for its mixture candidates at once
PLAN_ENTRIES = 2**18


class LossKind(Enum):
    LR = "LR"
    NSVM = "NSVM"
    LSVM = "LSVM"


class Dataset:
    """Immutable sparse dataset: a CSR matrix of features and ±1 labels."""

    def __init__(self, matrix: sp.csr_matrix, labels: np.ndarray):
        matrix = sp.csr_matrix(matrix)  # may share the caller's arrays
        if not matrix.has_sorted_indices:
            matrix = matrix.sorted_indices()
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
        # log(1 + exp(-a)) as log1p(exp(-|a|)) + max(-a, 0): no overflow for
        # large |a|, and the same identity np.logaddexp(0, -a) uses, but on
        # numpy's vectorised exp and log1p loops (logaddexp is a scalar loop,
        # about 5x slower); values agree with it to a few ulp
        return np.log1p(np.exp(-np.abs(a))) + np.maximum(-a, 0.0)
    if kind is LossKind.NSVM:
        return 1.0 - np.tanh(a)
    return np.maximum(0.0, 1.0 - a)


def _point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, dataset dimension is {n}")
    return x


def squared_norms(V: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis, by numpy's own pairwise sum: a BLAS
    dot would depend on the BLAS thread count."""
    return np.add.reduce(np.square(V), axis=-1)


def index_dtype(*sizes: int) -> type:
    """The CSR index dtype scipy picks for these dimensions and entry counts;
    passing it spares scipy its scan of the index arrays."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


class StackedBatch:
    """The M same-size minibatch objectives of a DES round or a zeroth-order
    step, evaluated together at the M rows of a stacked point array V (M x n).
    BatchView is its one-worker case.

    rows holds worker i's minibatch (row indices into obj.dataset) in row i.
    One gather of all M*b rows makes a block-diagonal CSR whose block i holds
    the entries of dataset.matrix[rows[i]] in stored order and acts on row i
    of V (columns offset by i*n). A dense candidate is a pure function of V:
    the full stacked matvec, then per worker the loss sum over b plus the L2
    term, bit for bit the mean loss plus regularizer of that worker alone. It
    drops the cache below: keep after it does nothing, and a mixture candidate
    after it needs a new reset. For mixture candidates, reset caches the kept
    points' M*b signed margins a = y * (X v), their per-row losses and each
    worker's squared norm, all exact. plan(cols) takes the flat coordinates
    that the coming mixture candidates change and makes a y-scaled CSC of only
    those columns, sliced into each candidate's entries PLAN_ENTRIES at a
    time. A candidate then moves the margins of the rows in each changed
    column j by y_r * X_rj * delta_j, recomputes the losses of those rows
    only, and moves each squared norm by new^2 - old^2 over its changed
    coordinates: O(l * column nnz + touched rows) arithmetic, plus copy-speed
    passes over the M*b cache (the undo copy that keep restores rejected
    workers from, and the per-worker sums). Its values equal an exact
    recompute up to rounding.
    """

    def __init__(self, obj: "RegularizedObjective", rows):
        rows = np.asarray(rows, dtype=np.int64)
        self.obj = obj
        workers, self.b = rows.shape
        rows = rows.reshape(-1)
        X = obj.dataset.matrix[rows]
        self.n = obj.dataset.n_features
        shape = (workers * self.b, workers * self.n)
        index = index_dtype(*shape, X.nnz)
        offsets = np.repeat(np.arange(workers, dtype=index) * index(self.n),
                            np.diff(X.indptr[::self.b]))
        self._X = sp.csr_matrix((X.data, X.indices.astype(index, copy=False) + offsets,
                                 X.indptr.astype(index, copy=False)), shape=shape)
        self._y = obj.dataset.labels[rows]
        self._a = self._loss = self._sq = self._undo = None
        self._steps = iter(())

    def _exact(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a = self._y * (self._X @ V.reshape(-1))
        loss = _loss_values(self.obj.loss_kind, a).reshape(-1, self.b)
        return a, loss, squared_norms(V)

    def _worker_values(self, loss: np.ndarray, sq: np.ndarray) -> np.ndarray:
        return np.add.reduce(loss, axis=1) / self.b + 0.5 * self.obj.reg * sq

    def reset(self, V: np.ndarray) -> np.ndarray:
        """Worker values at V, uncounted; V becomes the kept points."""
        self._a, self._loss, self._sq = self._exact(V)
        return self._worker_values(self._loss, self._sq)

    def plan(self, cols: np.ndarray) -> None:
        """Plan the coming mixture candidates: row k of cols (K x M*l) lists the
        flat coordinates (row i, column j as i*n + j, repeats allowed) where
        candidate k may differ from the kept points."""
        # a module-level generator: one holding self would keep every round's
        # batch alive in a reference cycle until the next garbage collection
        self._steps = _planned(self._X, self._y, np.asarray(cols, dtype=np.int64))

    def values(self, V: np.ndarray, before: np.ndarray | None = None) -> np.ndarray:
        """Worker values at the candidates V, charging M*b evaluations.

        before None means V may differ anywhere. Otherwise V is the next
        planned candidate and before[t] is the kept value at its t-th planned
        coordinate.
        """
        self.obj.eval_counter += self._X.shape[0]
        if before is None:
            self._a = self._loss = self._sq = self._undo = None
            return self._worker_values(*self._exact(V)[1:])
        step = None if self._a is None else next(self._steps, None)
        if step is None:
            raise ValueError("mixture candidates need plan(cols) and reset(V) first, "
                             "and reset again after a dense one")
        cols, first, counts, entry_rows, data = step
        old, new = before[first], V.reshape(-1)[cols]
        # each touched row once, though several changed columns may share it
        hit = np.zeros(len(self._a), dtype=bool)
        hit[entry_rows] = True
        rows = np.flatnonzero(hit)
        self._undo = (self._a.copy(), self._loss.copy(), self._sq.copy())
        np.add.at(self._a, entry_rows, data * np.repeat(new - old, counts))
        self._loss.reshape(-1)[rows] = _loss_values(self.obj.loss_kind, self._a[rows])
        self._sq += np.bincount(cols // self.n, weights=new * new - old * old,
                                minlength=len(self._sq))
        return self._worker_values(self._loss, self._sq)

    def keep(self, accepted: np.ndarray) -> None:
        """Keep the last mixture candidates of the accepted workers; restore the rest."""
        if self._undo is None:
            return
        a, loss, sq = self._undo
        rejected = ~accepted
        self._a.reshape(-1, self.b)[rejected] = a.reshape(-1, self.b)[rejected]
        self._loss[rejected] = loss[rejected]
        self._sq[rejected] = sq[rejected]


class BatchView(StackedBatch):
    """The fixed-minibatch objective f_i: the one-worker StackedBatch, its
    rows gathered once and scored at single points. Every value/loss
    evaluation charges len(rows) samples to the objective's counter."""

    def __init__(self, obj: "RegularizedObjective", rows):
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) < 1:
            raise ValueError("minibatch must contain at least one example")
        super().__init__(obj, rows[None])

    def value(self, x: np.ndarray) -> float:
        """Mean batch loss plus the L2 regularizer."""
        return float(self.values(_point(x, self.n)[None])[0])

    def peek_value(self, x: np.ndarray) -> float:
        """value(x) uncounted: the parent's value at the start of a local
        round, which sits outside the per-candidate evaluation budget."""
        return float(self._worker_values(*self._exact(_point(x, self.n)[None])[1:])[0])

    def loss_sum_many(self, points: np.ndarray) -> np.ndarray:
        """Unregularized loss sums for several points at once, shape (q,)."""
        margins = self._y[:, None] * (self._X @ np.asarray(points, dtype=np.float64).T)
        self.obj.eval_counter += self.b * margins.shape[1]
        return np.sum(_loss_values(self.obj.loss_kind, margins), axis=0)


def _planned(X: sp.csr_matrix, y: np.ndarray, cols: np.ndarray):
    """For each row of cols in turn: its sorted unique coordinates, their first
    occurrences (what np.unique(row, return_index=True) returns), their CSC
    entry counts, and the entries' rows and y-scaled values, column by column.
    The entries come from a CSC of only the drawn columns of X, sliced for
    as many rows at once as fit in PLAN_ENTRIES entries."""
    order = np.argsort(cols, axis=1, kind="stable")
    ordered = np.take_along_axis(cols, order, axis=1)
    new = np.ones(cols.shape, dtype=bool)
    new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    unique, first = ordered[new], order[new]
    bounds = np.concatenate(([0], np.cumsum(np.add.reduce(new, axis=1))))
    drawn, local = np.unique(unique, return_inverse=True)
    csc = X[:, drawn].tocsc()
    csc.data *= y[csc.indices]
    counts = np.diff(csc.indptr)[local]
    starts = np.concatenate(([0], np.cumsum(counts)))[bounds]  # entries before each row
    k = 0
    while k < len(cols):
        # the most candidates, one at least, whose entries fit in PLAN_ENTRIES
        stop = max(k + 1, int(np.searchsorted(starts, starts[k] + PLAN_ENTRIES, "right")) - 1)
        pos = _column_entries(csc.indptr, local[bounds[k]:bounds[stop]])
        rows, data = csc.indices[pos], csc.data[pos]
        for j in range(k, stop):
            coords = slice(bounds[j], bounds[j + 1])
            entries = slice(starts[j] - starts[k], starts[j + 1] - starts[k])
            yield unique[coords], first[coords], counts[coords], rows[entries], data[entries]
        k = stop


def _column_entries(indptr: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The positions of the given (nonempty list of) columns' entries in a CSC
    matrix, column by column in stored order."""
    starts = indptr[cols]
    counts = indptr[cols + 1] - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)


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
        return 0.5 * self.reg * float(squared_norms(x))

    def batch(self, rows) -> BatchView:
        return BatchView(self, rows)

    def eval_full(self, x: np.ndarray) -> float:
        """Full-dataset objective f(x). Metric path, not counted."""
        return self.eval_full_and_error(x)[0]

    def eval_full_and_error(self, x: np.ndarray) -> tuple[float, float]:
        """eval_full(x) and classification_error(x, dataset) from one product
        of the data matrix with x. Metric path, not counted."""
        x, scores = _scores(x, self.dataset)
        a = self.dataset.labels * scores
        return (float(np.mean(_loss_values(self.loss_kind, a))) + self._reg_term(x),
                _error(scores, self.dataset.labels))


def _scores(x: np.ndarray, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """x as a float64 point of the dataset's dimension, and X @ x."""
    x = _point(x, dataset.n_features)
    return x, dataset.matrix @ x


def _error(scores: np.ndarray, labels: np.ndarray) -> float:
    """Misclassified fraction under ±1 labels: a score >= 0 predicts +1, any
    other score (NaN included) predicts -1."""
    return int(np.count_nonzero((scores >= 0.0) != (labels > 0.0))) / len(labels)


def classification_error(x: np.ndarray, dataset: Dataset) -> float:
    """Fraction of examples misclassified by sign(x . z), ties predicting +1."""
    return _error(_scores(x, dataset)[1], dataset.labels)
