"""Loss values and gradients, evaluation accounting, and dataset invariants."""
from __future__ import annotations

import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from desopt import (
    BatchView,
    Dataset,
    LossKind,
    RegularizedObjective,
    classification_error,
)
from desopt.objective import _loss_values
from helpers import dataset_from_dense
from objective_oracles import ReferenceBatchView, batch_gradient

RNG = np.random.default_rng(90210)


def random_dense_dataset(n_examples=12, n_features=5, rng=RNG):
    X = rng.normal(size=(n_examples, n_features))
    y = rng.choice([-1.0, 1.0], size=n_examples)
    return dataset_from_dense(X, y)


def test_losses_at_zero():
    ds = random_dense_dataset()
    x0 = np.zeros(ds.n_features)
    assert RegularizedObjective(LossKind.LR, ds, reg=0.0).eval_full(x0) == np.log(2.0)
    assert RegularizedObjective(LossKind.NSVM, ds, reg=0.0).eval_full(x0) == 1.0
    assert RegularizedObjective(LossKind.LSVM, ds, reg=0.0).eval_full(x0) == 1.0


def test_regularizer_alone_on_zero_loss_point():
    # Margins >= 1 zero the hinge, leaving (reg/2)||x||^2 = 1e-6 for ||x||^2 = 2.
    ds = dataset_from_dense([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    obj = RegularizedObjective(LossKind.LSVM, ds, reg=1e-6)
    x = np.array([np.sqrt(2.0), 0.0])
    assert obj.eval_full(x) == pytest.approx(1e-6, rel=1e-12)


def test_value_matches_per_example_loop():
    ds = random_dense_dataset(20, 6)
    rows = np.array([3, 3, 7, 0, 19, 11])  # duplicates allowed
    x = RNG.normal(size=6)
    for kind in LossKind:
        obj = RegularizedObjective(kind, ds, reg=1e-3)
        got = obj.batch(rows).value(x)
        per = []
        for r in rows:
            row = ds.matrix[int(r)]
            a = ds.labels[r] * float(np.sum(row.data * x[row.indices]))
            if kind is LossKind.LR:
                per.append(np.log1p(np.exp(-a)))
            elif kind is LossKind.NSVM:
                per.append(1.0 - np.tanh(a))
            else:
                per.append(max(0.0, 1.0 - a))
        want = float(np.mean(per)) + 0.5 * 1e-3 * float(x @ x)
        npt.assert_allclose(got, want, rtol=1e-12)


def test_mean_form_is_duplication_invariant():
    X = RNG.normal(size=(3, 4))
    y = np.array([1.0, -1.0, 1.0])
    single = RegularizedObjective(LossKind.LR, dataset_from_dense(X, y))
    doubled = RegularizedObjective(LossKind.LR, dataset_from_dense(np.vstack([X, X]), np.concatenate([y, y])))
    x = RNG.normal(size=4)
    npt.assert_allclose(single.eval_full(x), doubled.eval_full(x), rtol=1e-15)


def test_logistic_extreme_margins_stable():
    ds = dataset_from_dense([[1.0], [1.0]], [1.0, -1.0])
    obj = RegularizedObjective(LossKind.LR, ds, reg=0.0)
    with np.errstate(over="raise"):
        big = obj.eval_full(np.array([1e4]))
    # one margin +1e4 (loss ~ 0) and one -1e4 (loss ~ 1e4): mean ~ 5e3
    assert np.isfinite(big)
    npt.assert_allclose(big, 5e3, rtol=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=70))
def test_logistic_loss_within_4_ulp_of_logaddexp(margins):
    # the vectorised softplus against numpy's scalar logaddexp, over the
    # whole finite float64 range (arrays long enough for the SIMD loops)
    a = np.array(margins)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = _loss_values(LossKind.LR, a)
    ref = np.logaddexp(0.0, -a)
    # both are >= 0, so their bit patterns as integers count ulps apart
    assert np.all(np.abs(loss.view(np.int64) - ref.view(np.int64)) <= 4)


def test_logistic_loss_at_inf_and_nan():
    a = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0] * 4)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        loss = _loss_values(LossKind.LR, a)
    # logaddexp(0, -a) is 0 at +inf and inf at -inf; NaN propagates
    npt.assert_array_equal(loss, [0.0, np.inf, np.nan, np.log(2.0), np.log(2.0)] * 4)


def test_gradient_closed_forms_at_zero():
    # Single example z = e1, label +1, x = 0: LR gradient is -0.5 e1 and the
    # sigmoid-style SVM gradient is -1 e1 (reg term vanishes at zero).
    ds = dataset_from_dense([[1.0, 0.0, 0.0]], [1.0])
    x0 = np.zeros(3)
    g_lr = batch_gradient(RegularizedObjective(LossKind.LR, ds, reg=1e-6).batch([0]), x0)
    npt.assert_allclose(g_lr, [-0.5, 0.0, 0.0], rtol=0, atol=1e-15)
    g_nsvm = batch_gradient(RegularizedObjective(LossKind.NSVM, ds, reg=1e-6).batch([0]), x0)
    npt.assert_allclose(g_nsvm, [-1.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_gradient_matches_central_differences():
    h = 1e-6
    ds = random_dense_dataset(30, 4, np.random.default_rng(5))
    rng = np.random.default_rng(17)
    for kind in (LossKind.LR, LossKind.NSVM):
        obj = RegularizedObjective(kind, ds, reg=1e-2)
        for _ in range(50):
            x = rng.normal(size=4)
            rows = rng.integers(0, len(ds), size=6)
            view = obj.batch(rows)
            g = batch_gradient(view, x)
            fd = np.zeros(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[j] = (view.peek_value(x + e) - view.peek_value(x - e)) / (2 * h)
            npt.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_hinge_subgradient_cases():
    ds = dataset_from_dense([[1.0, 0.0]], [1.0])
    view = RegularizedObjective(LossKind.LSVM, ds, reg=1e-3).batch([0])
    # margin a = x[0]; below the kink the subgradient is -y z + reg x
    g_below = batch_gradient(view, np.array([0.5, 0.0]))
    npt.assert_allclose(g_below, [-1.0 + 1e-3 * 0.5, 0.0], rtol=1e-12)
    # at the kink (a = 1) the loss slope is defined as 0
    g_at = batch_gradient(view, np.array([1.0, 0.0]))
    npt.assert_allclose(g_at, [1e-3 * 1.0, 0.0], rtol=1e-12)
    # above the kink only the regularizer remains
    g_above = batch_gradient(view, np.array([2.0, 0.0]))
    npt.assert_allclose(g_above, [1e-3 * 2.0, 0.0], rtol=1e-12)


def test_classification_error_cases():
    X = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    y = [1.0, 1.0, -1.0, -1.0]
    ds = dataset_from_dense(X, y)
    # x = 0 predicts +1 everywhere: half the labels are -1
    assert classification_error(np.zeros(2), ds) == 0.5
    # a perfect separator, and scale invariance of the 0/1 error
    w = np.array([1.0, 1.0])
    assert classification_error(w, ds) == 0.0
    assert classification_error(10.0 * w, ds) == 0.0
    assert classification_error(-w, ds) == 1.0


def test_classification_error_tie_predicts_positive():
    ds = dataset_from_dense([[0.0, 1.0], [0.0, 1.0]], [1.0, -1.0])
    x = np.array([5.0, 0.0])  # both margins exactly zero
    assert classification_error(x, ds) == 0.5
    # one label alone tells +1 from -1 at a tie; a NaN score predicts -1
    assert classification_error(x, dataset_from_dense([[0.0, 1.0]], [1.0])) == 0.0
    assert classification_error(x, dataset_from_dense([[0.0, 1.0]], [-1.0])) == 1.0
    assert classification_error(np.array([np.nan, 0.0]), dataset_from_dense([[1.0, 0.0]], [-1.0])) == 0.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 30), st.integers(1, 40), st.sampled_from([0.05, 0.3, 1.0]),
       st.sampled_from(list(LossKind)), st.sampled_from([0.0, 1e-6, 0.1]),
       st.integers(0, 2**32 - 1))
def test_batch_view_equals_standalone_reference(n, b, density, kind, reg, seed):
    # BatchView is the one-worker StackedBatch; its values must be the
    # standalone row-gather-and-mean objective's, bit for bit, ledger included
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(12, n)) * (rng.random((12, n)) < density)
    ds = Dataset(sp.csr_matrix(features), rng.choice([-1.0, 1.0], size=12))
    rows = rng.integers(0, 12, size=b)  # repeats allowed
    obj, ref_obj = RegularizedObjective(kind, ds, reg), RegularizedObjective(kind, ds, reg)
    view, ref = obj.batch(rows), ReferenceBatchView(ref_obj, rows)
    assert isinstance(view, BatchView)
    for scale in (0.0, 1.0, 30.0):
        x = rng.normal(size=n) * scale
        assert view.value(x) == ref.value(x)
        assert view.peek_value(x) == ref.peek_value(x)
        points = rng.normal(size=(3, n)) * scale
        assert np.array_equal(view.loss_sum_many(points), ref.loss_sum_many(points))
        assert obj.eval_counter == ref_obj.eval_counter
    assert np.array_equal(batch_gradient(view, x), batch_gradient(ref, x))


def test_eval_counter_semantics():
    ds = random_dense_dataset(10, 3)
    obj = RegularizedObjective(LossKind.LR, ds)
    x = np.zeros(3)
    view = obj.batch([0, 1, 2, 3])
    assert obj.eval_counter == 0
    view.value(x)
    assert obj.eval_counter == 4
    view.peek_value(x)
    assert obj.eval_counter == 4  # peek path is uncounted
    view.loss_sum_many(np.zeros((3, 3)))
    assert obj.eval_counter == 4 + 3 * 4
    obj.eval_full(x)
    assert obj.eval_counter == 16  # the metric path stays uncounted
    obj.batch([5]).value(x)
    assert obj.eval_counter == 17


def test_dimension_mismatch_raises():
    ds = random_dense_dataset(4, 3)
    obj = RegularizedObjective(LossKind.LR, ds)
    bad = np.zeros(5)
    with pytest.raises(ValueError):
        obj.eval_full(bad)
    with pytest.raises(ValueError):
        obj.batch([0]).value(bad)
    with pytest.raises(ValueError):
        classification_error(bad, ds)


def test_batch_requires_rows():
    ds = random_dense_dataset(4, 3)
    obj = RegularizedObjective(LossKind.LR, ds)
    with pytest.raises(ValueError):
        obj.batch([])


def test_dataset_validation():
    import scipy.sparse as sp

    with pytest.raises(ValueError):
        Dataset(sp.csr_matrix((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        dataset_from_dense([[1.0]], [2.0])  # non-±1 label
    with pytest.raises(ValueError):
        Dataset(sp.csr_matrix(np.ones((2, 2))), np.array([1.0]))
    with pytest.raises(ValueError):
        dataset_from_dense([[np.inf]], [1.0])
    with pytest.raises(ValueError):
        RegularizedObjective(LossKind.LR, random_dense_dataset(), reg=-1.0)


def test_dataset_leaves_callers_matrix_unsorted():
    # csr_matrix(m) shares m's arrays; sorting them in place reordered the caller's row
    m = sp.csr_matrix((np.array([2.0, 3.0]), np.array([1, 0]), np.array([0, 2])), shape=(1, 2))
    ds = Dataset(m, [1.0])
    assert m.indices.tolist() == [1, 0] and m.data.tolist() == [2.0, 3.0]
    assert ds.matrix.indices.tolist() == [0, 1] and ds.matrix.data.tolist() == [3.0, 2.0]
    assert ds.matrix.has_sorted_indices


def test_subset_and_equality():
    ds = random_dense_dataset(8, 4)
    sub = ds.subset([0, 3, 3])
    assert len(sub) == 3
    assert sub.labels[1] == ds.labels[3]
    assert sub == ds.subset(np.array([0, 3, 3]))
    assert not (sub == ds.subset([0, 3, 4]))


def test_losses_nonnegative():
    ds = random_dense_dataset(25, 6, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    for kind in LossKind:
        obj = RegularizedObjective(kind, ds, reg=1e-6)
        for _ in range(20):
            assert obj.eval_full(rng.normal(size=6) * 3.0) >= 0.0
