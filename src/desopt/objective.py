"""Regularized finite-sum losses over sparse data.

Three binary-classification losses (logistic, nonconvex SVM, hinge SVM) with
an L2 regularizer. Minibatches are plain arrays of row indices into a Dataset
(duplicates allowed, matching with-replacement draws).
"""
from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from typing import NamedTuple

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
    One gather of all M*b rows, made on first use (a prepared round needs it
    only after an overflow), makes a block-diagonal CSR whose block i holds
    the entries of dataset.matrix[rows[i]] in stored order and acts on row i
    of V (columns offset by i*n). An unplanned candidate is a pure function
    of V: the full stacked matvec, then per worker the loss sum over b plus
    the L2 term, bit for bit the mean loss plus regularizer of that worker
    alone. It drops the cache below: keep after it does nothing, and any
    planned candidate after it needs a new reset.

    reset caches the kept points' M*b signed margins a = y * (X v), their
    per-row losses, each worker's loss sum and squared norm, all exact;
    given the rows' products (the training-set scores of the round's start
    point), it needs no gather and no product.

    A planned dense candidate is the kept points plus a step times draws u
    whose products y * (X u) plan_dense has queued (products(draws) makes
    them, maybe in the process that prepared the round): its margins are the
    kept ones plus the step times those products, then come the losses of
    all M*b rows and each worker's sum; its squared norms are taken from its
    points. keep copies the accepted workers' margins into the cache, and
    drops the rest of it: a mixture candidate after a dense one needs a new
    reset.

    plan(cols) takes the flat coordinates that the coming mixture candidates
    change and cuts them into PlanBlocks of at most PLAN_ENTRIES CSC entries
    (blocks(cols)), which list each candidate's touched rows unless they
    hold more entries than DENSE_TOUCH of their rows. A candidate moves the
    margins of the rows in each changed column j by y_r * X_rj * delta_j,
    recomputes the losses of the touched rows only, and moves each worker's
    squared norm by new^2 - old^2 over its changed coordinates and its loss
    sum by new - old over its touched rows (a coordinate's worker is its
    index // n, a row's its index // b): O(l * column nnz + touched rows)
    arithmetic, and keep puts back only the rejected workers' touched rows:
    no pass over the M*b cache. In a block without touched rows, where such
    row lists would cost more than whole rows, a candidate instead copies
    the margins, scores every row and takes its sums over all of them (an
    untouched row adds exactly 0, so the values are the same), and keep
    restores rejected workers' whole rows.

    Planned values equal an exact recompute up to rounding; once a margin
    the candidate moved (or, for a mixture candidate, the loss sums' total)
    is not finite, the non-finite margins are recomputed from their rows
    (and a mixture candidate's sums taken afresh).
    """

    def __init__(self, obj: "RegularizedObjective", rows):
        rows = np.asarray(rows, dtype=np.int64)
        self.obj = obj
        self.workers, self.b = rows.shape
        self.rows = rows.reshape(-1)
        self.n = obj.dataset.n_features
        self._y = obj.dataset.labels[self.rows]
        self._a = self._loss = self._sums = self._sq = self._undo = self._moved = None
        self._steps = self._products = iter(())

    @functools.cached_property
    def _X(self) -> sp.csr_matrix:
        X = self.obj.dataset.matrix[self.rows]
        shape = (len(self.rows), self.workers * self.n)
        index = index_dtype(*shape, X.nnz)
        indices = X.indices.astype(index)  # a copy, offset in place: worker i's j is i*n + j
        ends = X.indptr[::self.b]
        for i in range(1, self.workers):
            indices[ends[i]:ends[i + 1]] += i * self.n
        return sp.csr_matrix((X.data, indices, X.indptr.astype(index, copy=False)), shape=shape)

    @functools.cached_property
    def _owners(self) -> np.ndarray:
        return np.repeat(np.arange(self.workers), self.b)

    def _exact(self, V: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        """Worker values at V from its margins a, recomputed from the rows when a is None."""
        if a is None:
            a = self._y * (self._X @ V.reshape(-1))
        loss = _loss_values(self.obj.loss_kind, a)
        sums = np.add.reduce(loss.reshape(-1, self.b), axis=1)
        return sums / self.b + 0.5 * self.obj.reg * squared_norms(V)

    def reset(self, V: np.ndarray, scores: np.ndarray | None = None) -> np.ndarray:
        """Worker values at V, uncounted; V becomes the kept points. The
        margins are y * scores, where scores are the stacked rows' products
        X v: given, they spare the gather and the product; else X @ V."""
        self._a = self._y * (self._X @ V.reshape(-1) if scores is None else scores)
        self._loss = _loss_values(self.obj.loss_kind, self._a)
        self._sums = np.add.reduce(self._loss.reshape(-1, self.b), axis=1)
        self._sq = squared_norms(V)
        self._undo = self._moved = None
        return self._sums / self.b + 0.5 * self.obj.reg * self._sq

    def products(self, draws: np.ndarray) -> np.ndarray:
        """y * (X u) for each row u of draws (rows x M x n, an iteration's
        M x n mutations a row), as a rows x M*b array: row j is how far
        iteration j's candidates move the margins per unit step."""
        product = self._X @ draws.reshape(len(draws), -1).T
        # y is +-1: scaling the transposed product is exact, and lays it out by rows
        return np.multiply(product.T, self._y, out=np.empty(product.shape[::-1]))

    def plan_dense(self, products) -> None:
        """Plan the coming dense candidates (prepare_round does, once a
        round): products yields blocks of products(draws) for the
        candidates' draws, in order, maybe made in the process that prepared
        the round."""
        self._products = itertools.chain.from_iterable(products)

    def blocks(self, cols: np.ndarray):
        """The PlanBlocks of cols (see plan), made one at a time."""
        # a module-level generator: one holding self would keep every round's
        # batch alive in a reference cycle until the next garbage collection
        return _plan_blocks(self._X, self._y, np.asarray(cols, dtype=np.int64))

    def plan(self, cols: np.ndarray, blocks=None) -> None:
        """Plan the coming mixture candidates (prepare_round does, once a round):
        row k of cols (K x M*l) lists the flat coordinates (row i, column j as
        i*n + j, repeats allowed) where candidate k may differ from the kept
        points. blocks, if given, are blocks(cols), maybe made in the process
        that prepared the round."""
        self._steps = _plan_steps(self.blocks(cols) if blocks is None else blocks)

    def values(self, V: np.ndarray, move=None) -> np.ndarray:
        """Worker values at the candidates V, charging M*b evaluations.

        move None means V may differ anywhere. Otherwise V is the next
        planned candidate, and move says how it left the kept points: for a
        mixture candidate, move[t] is the kept value at its t-th planned
        coordinate; for a dense one, move is its step (a float) along its
        planned draws. A mixture candidate that cannot be scored raises
        ValueError and charges nothing; a dense one is scored as an
        unplanned candidate when no products are queued, or no reset has
        followed the last unplanned candidate.
        """
        if isinstance(move, float):
            return self._dense(V, move)
        step = None if move is None or self._sums is None else next(self._steps, None)
        if move is not None and step is None:
            raise ValueError("mixture candidates need plan(cols) and reset(V) first, "
                             "and reset again after a dense one")
        self.obj.eval_counter += len(self.rows)
        if move is None:
            self._a = self._loss = self._sums = self._sq = self._undo = self._moved = None
            return self._exact(V)
        cols, first, counts, entry_rows, data, touched = step
        old, new = move[first], V.reshape(-1)[cols]
        a, loss = self._a, self._loss
        shift = data * np.repeat(new - old, counts)
        if touched is None:
            # a block without touched rows: save the whole cache, score every row
            self._undo = (None, a.copy(), loss, self._sums, self._sq)
            np.add.at(a, entry_rows, shift)
            self._loss = fresh = _loss_values(self.obj.loss_kind, a)
            saved, owner = loss, self._owners
            # a finite total means finite margins; else look at the moved ones
            finite = math.isfinite(np.add.reduce(a)) or np.isfinite(a[entry_rows]).all()
        else:
            saved = loss[touched]
            self._undo = (touched, a[touched], saved, self._sums, self._sq)
            np.add.at(a, entry_rows, shift)
            moved = a[touched]
            # a finite total means finite margins (a total that overflows
            # only recomputes for nothing)
            finite = math.isfinite(np.add.reduce(moved))
            fresh = _loss_values(self.obj.loss_kind, moved)
            loss[touched] = fresh
            owner = touched // self.b
        self._sums = self._sums + np.bincount(owner, weights=fresh - saved, minlength=self.workers)
        if not (finite and math.isfinite(np.add.reduce(self._sums))):
            # an overflowed margin or sum cannot come back by differences
            # (inf - inf is NaN), and a margin may overflow where its exact
            # value does not, its loss staying finite (NSVM's at +-inf, LR's
            # at +inf): recompute the non-finite margins from their rows,
            # then their losses, and sum afresh
            bad = np.flatnonzero(~np.isfinite(a))
            a[bad] = self._y[bad] * (self._X[bad] @ V.reshape(-1))
            self._loss[bad] = _loss_values(self.obj.loss_kind, a[bad])
            self._sums = np.add.reduce(self._loss.reshape(-1, self.b), axis=1)
        self._sq = self._sq + np.bincount(cols // self.n, weights=new * new - old * old,
                                          minlength=self.workers)
        return self._sums / self.b + 0.5 * self.obj.reg * self._sq

    def _dense(self, V: np.ndarray, step: float) -> np.ndarray:
        """Worker values at the planned dense candidates V (see values)."""
        products = next(self._products, None)
        if products is None or self._a is None:
            return self.values(V)
        self.obj.eval_counter += len(self.rows)
        a = self._a + step * products
        if not math.isfinite(np.add.reduce(a)):
            # a finite total means finite margins; recompute the others from their rows
            bad = np.flatnonzero(~np.isfinite(a))
            a[bad] = self._y[bad] * (self._X[bad] @ V.reshape(-1))
        self._moved = a
        self._loss = self._sums = self._sq = self._undo = None
        return self._exact(V, a)

    def keep(self, accepted: np.ndarray) -> None:
        """Keep the last planned candidates of the accepted workers; restore the rest."""
        if self._moved is not None:
            np.copyto(self._a.reshape(-1, self.b), self._moved.reshape(-1, self.b),
                      where=accepted[:, None])
            self._moved = None
        if self._undo is None:
            return
        touched, a, loss, sums, sq = self._undo
        self._undo = None
        rejected = ~accepted
        if touched is None:
            self._a.reshape(-1, self.b)[rejected] = a.reshape(-1, self.b)[rejected]
            self._loss.reshape(-1, self.b)[rejected] = loss.reshape(-1, self.b)[rejected]
        else:
            back = rejected[touched // self.b]
            self._a[touched[back]] = a[back]
            self._loss[touched[back]] = loss[back]
        self._sums[rejected] = sums[rejected]
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
        return float(self._exact(_point(x, self.n)[None])[0])

    def loss_sum_many(self, points: np.ndarray) -> np.ndarray:
        """Unregularized loss sums for several points at once, shape (q,)."""
        margins = self._y[:, None] * (self._X @ np.asarray(points, dtype=np.float64).T)
        self.obj.eval_counter += self.b * margins.shape[1]
        return np.sum(_loss_values(self.obj.loss_kind, margins), axis=0)


# A plan block whose candidates average more CSC entries than this share of
# the M*b stacked rows (so that most rows may be touched) lists no touched
# rows: its candidates copy and score whole cache rows instead
DENSE_TOUCH = 0.25


class PlanBlock(NamedTuple):
    """The plan of consecutive mixture candidates. Candidate s changes the
    sorted unique coordinates unique[bounds[s]:bounds[s+1]], whose first
    occurrences in its row of cols are in first (what np.unique(row,
    return_index=True) returns) and whose CSC entry counts are in counts.
    Its entries are entry_rows and data[starts[s]:starts[s+1]], column by
    column. In a block with no more entries than DENSE_TOUCH of its rows,
    the candidate touches the sorted rows touched[tbounds[s]:tbounds[s+1]];
    in a denser block those two are empty. Every field is a 1-d array."""

    bounds: np.ndarray
    unique: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    entry_rows: np.ndarray
    data: np.ndarray
    tbounds: np.ndarray
    touched: np.ndarray


def _plan_blocks(X: sp.csr_matrix, y: np.ndarray, cols: np.ndarray):
    """PlanBlocks for the rows of cols (one candidate each), as many
    candidates per block as fit in PLAN_ENTRIES entries of a y-scaled CSC of
    only the drawn columns of X, one at least."""
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
    rows = X.shape[0]
    k = 0
    while k < len(cols):
        # the most candidates, one at least, whose entries fit in PLAN_ENTRIES
        stop = max(k + 1, int(np.searchsorted(starts, starts[k] + PLAN_ENTRIES, "right")) - 1)
        coords = slice(bounds[k], bounds[stop])
        pos = _column_entries(csc.indptr, local[coords])
        block_starts = starts[k:stop + 1] - starts[k]
        steps = np.arange(stop - k)
        entry_rows = csc.indices[pos]
        tbounds = touched = np.zeros(0, np.int64)
        if block_starts[-1] <= DENSE_TOUCH * rows * len(steps):
            entry_rows = entry_rows.astype(np.int64)  # int32 indices cost a cast at each use
            # each candidate's touched rows once: sort (candidate, row) keys
            # and drop repeats (np.unique would hash them, several times slower)
            key = (np.repeat(steps * rows, np.diff(block_starts))
                   + entry_rows).astype(index_dtype(rows * len(steps)))
            key.sort()
            once = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=once[1:])
            key = key[once].astype(np.int64)
            tbounds = np.searchsorted(key, np.arange(stop - k + 1) * rows)
            touched = key - np.repeat(steps * rows, np.diff(tbounds))
        yield PlanBlock(bounds[k:stop + 1] - bounds[k], unique[coords], first[coords],
                        counts[coords], block_starts, entry_rows, csc.data[pos], tbounds, touched)
        k = stop


def _plan_steps(blocks):
    """Each candidate's (unique, first, counts, entry_rows, data, touched)
    from a sequence of PlanBlocks, touched None where a block lists none."""
    for block in blocks:
        bounds, starts, tbounds = block.bounds, block.starts, block.tbounds
        for s in range(len(bounds) - 1):
            coords, entries = slice(bounds[s], bounds[s + 1]), slice(starts[s], starts[s + 1])
            touched = block.touched[tbounds[s]:tbounds[s + 1]] if tbounds.size else None
            yield (block.unique[coords], block.first[coords], block.counts[coords],
                   block.entry_rows[entries], block.data[entries], touched)


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
        self._kept = None

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
        self._kept = (x.copy(), scores)
        a = self.dataset.labels * scores
        return (float(np.mean(_loss_values(self.loss_kind, a))) + self._reg_term(x),
                _error(scores, self.dataset.labels))

    def kept_scores(self, x: np.ndarray) -> np.ndarray | None:
        """The training-set scores X @ x of the last eval_full_and_error, if it
        was at x, else None. Each is its row's own dot product in stored
        order, so it equals a product over any gather of those rows bit for bit."""
        if self._kept is None or not np.array_equal(x, self._kept[0]):
            return None
        return self._kept[1]


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
