"""LIBSVM parsing/serialization, splits, partitions, synthetic generators."""
from __future__ import annotations

import gzip
import io

import numpy as np
import numpy.testing as npt
import pytest

from desopt import (
    Dataset,
    LibsvmParseError,
    LossKind,
    PartitionPlan,
    RegularizedObjective,
    RngStream,
    SplitSpec,
    SynthKind,
    classification_error,
    parse_libsvm,
    partition_uniform,
    split_train_test,
    synth_dataset,
    synth_dataset_with_truth,
    write_libsvm,
)

SAMPLE = """+1 1:0.5 3:-2
-1 2:1.25
+1 4:1e-3
"""


def test_parse_basic():
    ds = parse_libsvm(io.StringIO(SAMPLE))
    assert len(ds) == 3
    assert ds.n_features == 4
    npt.assert_array_equal(ds.matrix.indptr, [0, 2, 3, 4])
    npt.assert_array_equal(ds.matrix.indices, [0, 2, 1, 3])  # 1-based input, 0-based storage
    npt.assert_allclose(ds.matrix.data, [0.5, -2.0, 1.25, 1e-3])
    npt.assert_array_equal(ds.labels, [1.0, -1.0, 1.0])


def test_parse_n_features_override_and_blank_lines():
    text = "+1 1:1\n\n-1 2:1\n"
    ds = parse_libsvm(io.StringIO(text), n_features=10)
    assert ds.n_features == 10
    assert len(ds) == 2
    with pytest.raises(ValueError):
        parse_libsvm(io.StringIO(text), n_features=1)


def test_parse_zero_one_labels_map():
    ds = parse_libsvm(io.StringIO("0 1:1\n1 1:2\n0 2:3\n"))
    npt.assert_array_equal(ds.labels, [-1.0, 1.0, -1.0])


def test_parse_other_labels_need_threshold():
    text = "1 1:1\n2 1:1\n3 1:1\n"
    with pytest.raises(LibsvmParseError):
        parse_libsvm(io.StringIO(text))
    ds = parse_libsvm(io.StringIO(text), label_threshold=1.5)
    npt.assert_array_equal(ds.labels, [-1.0, 1.0, 1.0])
    for threshold in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="label_threshold must be finite"):
            parse_libsvm(io.StringIO(text), label_threshold=threshold)


def test_parse_errors_name_the_line():
    cases = [
        ("+1 1:1\nabc 1:1\n", "line 2"),
        ("+1 0:1\n", "line 1"),
        ("+1 2:1 2:2\n", "line 1"),  # repeated index
        ("+1 3:1 2:5\n", "line 1"),  # decreasing index
        ("+1 1:x\n", "line 1"),
        ("+1 1\n", "line 1"),
        ("+1 1:1\n-1 1:nan\n", "line 2"),
        ("+1 1:inf\n", "line 1"),
        ("+1 1:1\nnan 1:2\n", "line 2: non-finite label 'nan'"),
        ("inf 1:1\n", "line 1: non-finite label 'inf'"),
        ("+1 1:1\n-1 1:1\n-inf 1:3\n", "line 3: non-finite label '-inf'"),
    ]
    for text, needle in cases:
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(io.StringIO(text))
        assert needle in str(err.value)
    # a threshold would otherwise binarize nan to -1 and inf to +1
    with pytest.raises(LibsvmParseError, match="line 3: non-finite label 'nan'"):
        parse_libsvm(io.StringIO("1 1:1\n2 1:1\nnan 1:2\ninf 1:3\n"), label_threshold=1.5)


def test_parse_empty_input_rejected():
    with pytest.raises(LibsvmParseError):
        parse_libsvm(io.StringIO("\n\n"))


def test_parse_gzip_path(tmp_path):
    path = tmp_path / "data.txt.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(SAMPLE)
    ds = parse_libsvm(path)
    assert len(ds) == 3
    assert ds.labels[0] == 1.0


def test_parse_plain_path(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(SAMPLE, encoding="utf-8")
    assert len(parse_libsvm(path)) == 3


def test_write_parse_round_trip():
    stream = RngStream(77, "synth")
    ds = synth_dataset(SynthKind.NOISY_LINEAR, 12, 40, stream)
    buf = io.StringIO()
    write_libsvm(ds, buf)
    back = parse_libsvm(io.StringIO(buf.getvalue()), n_features=12)
    assert back == ds  # %.17g serialization is float-exact


def test_write_round_trip_file(tmp_path):
    ds = parse_libsvm(io.StringIO(SAMPLE))
    path = tmp_path / "out.txt"
    write_libsvm(ds, path)
    assert parse_libsvm(path, n_features=4) == ds


def test_split_sizes_and_disjointness():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 8, 100, RngStream(5, "synth"))
    train, test = split_train_test(ds, SplitSpec(0.8, RngStream(5, "split")))
    assert len(train) == 80
    assert len(test) == 20
    # row multiset is preserved: compare sorted serialized rows
    def keys(d):
        X = d.matrix
        return sorted((tuple(X[i].indices), tuple(X[i].data), d.labels[i]) for i in range(len(d)))
    assert sorted(keys(train) + keys(test)) == keys(ds)


def test_split_rounding_and_validation():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 5, RngStream(6, "synth"))
    train, test = split_train_test(ds, SplitSpec(0.5, RngStream(6, "split")))
    assert (len(train), len(test)) == (2, 3)  # round(0.5*5) = 2 (banker's)
    with pytest.raises(ValueError):
        SplitSpec(0.0, RngStream(0, "split"))
    with pytest.raises(ValueError):
        SplitSpec(1.0, RngStream(0, "split"))
    tiny = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 3, RngStream(7, "synth"))
    with pytest.raises(ValueError):
        split_train_test(tiny, SplitSpec(0.9, RngStream(0, "split")))


def test_split_deterministic():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 8, 50, RngStream(9, "synth"))
    a_train, a_test = split_train_test(ds, SplitSpec(0.8, RngStream(1, "split")))
    b_train, b_test = split_train_test(ds, SplitSpec(0.8, RngStream(1, "split")))
    assert a_train == b_train and a_test == b_test
    c_train, _ = split_train_test(ds, SplitSpec(0.8, RngStream(2, "split")))
    assert not (a_train == c_train)


def test_partition_covers_and_balances():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 23, RngStream(11, "synth"))
    plan = partition_uniform(ds, 4, RngStream(11, "partition"))
    assert plan.num_workers == 4
    sizes = sorted(len(s) for s in plan.worker_shards)
    assert sizes == [5, 6, 6, 6]  # 23 = 4*5+3, shard sizes differ by at most 1
    all_rows = np.sort(np.concatenate(plan.worker_shards))
    npt.assert_array_equal(all_rows, np.arange(23))


def test_partition_validation_and_determinism():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 10, RngStream(12, "synth"))
    with pytest.raises(ValueError):
        partition_uniform(ds, 11, RngStream(0, "partition"))
    with pytest.raises(ValueError):
        partition_uniform(ds, 0, RngStream(0, "partition"))
    p1 = partition_uniform(ds, 3, RngStream(4, "partition"))
    p2 = partition_uniform(ds, 3, RngStream(4, "partition"))
    for a, b in zip(p1.worker_shards, p2.worker_shards):
        npt.assert_array_equal(a, b)


def test_synth_separable_truth_has_zero_error():
    ds, w_star = synth_dataset_with_truth(SynthKind.SEPARABLE_LINEAR, 20, 500, RngStream(21, "synth"))
    assert classification_error(w_star, ds) == 0.0
    # per-row sparsity: round(20/4) = 5 distinct sorted indices
    for i in range(0, 500, 97):
        indices = ds.matrix[i].indices
        assert len(indices) == 5
        assert np.all(np.diff(indices) > 0)


def test_synth_noisy_flip_rate():
    n_rows = 100_000
    ds, w_star = synth_dataset_with_truth(SynthKind.NOISY_LINEAR, 8, n_rows, RngStream(22, "synth"))
    err = classification_error(w_star, ds)
    assert abs(err - 0.1) < 0.01  # flips happen with probability 0.1


def test_synth_single_feature_dimension():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 1, 10, RngStream(23, "synth"))
    assert ds.n_features == 1
    npt.assert_array_equal(np.diff(ds.matrix.indptr), 1)


def test_synth_deterministic():
    a = synth_dataset(SynthKind.NOISY_LINEAR, 6, 30, RngStream(31, "synth"))
    b = synth_dataset(SynthKind.NOISY_LINEAR, 6, 30, RngStream(31, "synth"))
    assert a == b
    c = synth_dataset(SynthKind.NOISY_LINEAR, 6, 30, RngStream(32, "synth"))
    assert not (a == c)


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_dataset(SynthKind.SEPARABLE_LINEAR, 0, 5, RngStream(0, "synth"))
    with pytest.raises(ValueError):
        synth_dataset(SynthKind.SEPARABLE_LINEAR, 5, 0, RngStream(0, "synth"))


def test_objective_over_parsed_data():
    ds = parse_libsvm(io.StringIO(SAMPLE))
    obj = RegularizedObjective(LossKind.LR, ds, reg=0.0)
    assert obj.eval_full(np.zeros(4)) == np.log(2.0)
