"""Benchmark bookkeeping: the solved test, performance profiles (frozen
fixture plus randomized properties), aggregation, and CSV round-trips."""
from __future__ import annotations

import itertools
import math
import statistics
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desopt import (
    AggregateCurve,
    MetricRow,
    ProfileCurve,
    RunRecord,
    aggregate_runs,
    compute_profiles,
    read_metrics_csv,
    solved,
    write_metrics_csv,
    write_profiles_csv,
)
from desopt.bench import METRICS_HEADER


def make_record(algo, inst, seed, losses, start_round=0):
    rec = RunRecord(algorithm=algo, instance=inst, seed=seed, config={})
    for i, loss in enumerate(losses):
        rec.rows.append(MetricRow(
            round=start_round + i, cum_evals=100 * i, train_loss=float(loss),
            train_err=0.0, test_err=0.0,
        ))
    return rec.validate()


def test_solved_cases():
    # f drops from 1.0; best-known is 0.0; delta=0.5 demands a strict
    # majority of the best drop.
    assert solved(1.0, 0.4, 0.0, 0.5)
    assert not solved(1.0, 0.5, 0.0, 0.5)  # boundary is strict
    assert not solved(1.0, 0.6, 0.0, 0.5)
    # nonzero target: threshold moves with the best-known value
    assert solved(1.0, 0.59, 0.2, 0.5)
    assert not solved(1.0, 0.6, 0.2, 0.5)
    # no algorithm improved at all: nothing counts as solved
    assert not solved(1.0, 1.0, 1.0, 0.5)


def test_solved_delta_validation():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            solved(1.0, 0.5, 0.0, bad)


def test_profile_fixture_frozen():
    # Hand-computed 3x4 fixture, delta = 0.5. Solved rounds:
    #   A: [2, 1, 1, never]   B: [1, 2, 1, never]   C: [3, never, 1, 1]
    # giving ratio multisets A {1,1,2}, B {1,1,2}, C {1,1,3} over 4 instances.
    recs = [
        make_record("A", "i1", 0, [1.0, 0.7, 0.45, 0.45, 0.45]),
        make_record("B", "i1", 0, [1.0, 0.4, 0.4, 0.4, 0.4]),
        make_record("C", "i1", 0, [1.0, 0.9, 0.8, 0.3, 0.0]),
        make_record("A", "i2", 0, [1.0, 0.45, 0.2, 0.2, 0.2]),
        make_record("B", "i2", 0, [1.0, 0.65, 0.55, 0.55, 0.55]),
        make_record("C", "i2", 0, [1.0, 0.95, 0.9, 0.85, 0.8]),
        make_record("A", "i3", 0, [1.0, 0.1, 0.0, 0.0, 0.0]),
        make_record("B", "i3", 0, [1.0, 0.3, 0.3, 0.3, 0.3]),
        make_record("C", "i3", 0, [1.0, 0.2, 0.2, 0.2, 0.2]),
        make_record("A", "i4", 0, [1.0, 0.9, 0.8, 0.7, 0.6]),
        make_record("B", "i4", 0, [1.0, 0.98, 0.97, 0.96, 0.95]),
        make_record("C", "i4", 0, [1.0, 0.2, 0.1, 0.1, 0.1]),
    ]
    curves = {c.algorithm: c for c in compute_profiles(recs, delta=0.5)}
    assert curves["A"].breakpoints == ((1.0, 0.5), (2.0, 0.75))
    assert curves["B"].breakpoints == ((1.0, 0.5), (2.0, 0.75))
    assert curves["C"].breakpoints == ((1.0, 0.5), (3.0, 0.75))
    # rho_at walks the step function, clamping below the first breakpoint
    assert curves["A"].rho_at(0.5) == 0.0
    assert curves["A"].rho_at(1.0) == 0.5
    assert curves["A"].rho_at(1.99) == 0.5
    assert curves["A"].rho_at(2.0) == 0.75
    assert curves["A"].rho_at(1e9) == 0.75  # the unsolved instance never joins


def test_profiles_input_order_invariance():
    recs = [
        make_record("A", "i1", s, [1.0, 0.5 - 0.01 * s, 0.2])
        for s in range(3)
    ] + [
        make_record("B", "i1", s, [1.0, 0.8, 0.3 + 0.01 * s])
        for s in range(3)
    ]
    base = compute_profiles(recs, delta=0.5)
    for perm in itertools.permutations(recs):
        assert compute_profiles(list(perm), delta=0.5) == base


def test_profiles_sole_solver_and_unsolved_algo():
    recs = [
        make_record("good", "i1", 0, [1.0, 0.1]),
        make_record("bad", "i1", 0, [1.0, 0.99]),
        make_record("good", "i2", 0, [1.0, 0.0]),
        make_record("bad", "i2", 0, [1.0, 1.0]),
    ]
    curves = {c.algorithm: c for c in compute_profiles(recs, delta=0.5)}
    assert curves["good"].breakpoints == ((1.0, 1.0),)
    assert curves["bad"].breakpoints == ()
    assert curves["bad"].rho_at(1e6) == 0.0


def test_profiles_two_algo_ratio():
    # A solves at round 10, B at round 20 on the only instance: ratios 1 and 2.
    a_losses = [1.0] + [0.9] * 9 + [0.0] + [0.0] * 10
    b_losses = [1.0] + [0.9] * 19 + [0.05]
    recs = [make_record("A", "i", 0, a_losses), make_record("B", "i", 0, b_losses)]
    curves = {c.algorithm: c for c in compute_profiles(recs, delta=0.5)}
    assert curves["A"].breakpoints == ((1.0, 1.0),)
    assert curves["B"].breakpoints == ((2.0, 1.0),)


def test_profiles_missing_cell_errors():
    recs = [
        make_record("A", "i1", 0, [1.0, 0.5]),
        make_record("A", "i2", 0, [1.0, 0.5]),
        make_record("B", "i1", 0, [1.0, 0.5]),
    ]
    with pytest.raises(ValueError, match="i2"):
        compute_profiles(recs, delta=0.5)


def test_profiles_reject_an_instance_solved_at_round_0():
    # B's round-0 loss (0.5) is below the instance's f(x0), the median round-0
    # loss over all runs (1.0), by more than delta of the best drop: B solves
    # the instance at round 0, and a best cost of 0 rounds leaves no ratio
    # (it was a ZeroDivisionError). Instance i2 alone still profiles.
    recs = [make_record("A", "i1", 0, [1.0, 0.9]), make_record("B", "i1", 0, [0.5, 0.4]),
            make_record("C", "i1", 0, [1.2, 1.1])]
    with pytest.raises(ValueError, match="instance 'i1' is solved at round 0 by B: "):
        compute_profiles(recs, delta=0.5)
    recs += [make_record("A", "i2", 0, [1.0, 0.1]), make_record("B", "i2", 0, [1.0, 0.9]),
             make_record("C", "i2", 0, [1.0, 0.2])]
    with pytest.raises(ValueError, match="instance 'i1' is solved at round 0 by B: "):
        compute_profiles(recs, delta=0.5)
    curves = compute_profiles(recs[3:], delta=0.5)
    assert [c.breakpoints for c in curves] == [((1.0, 1.0),), (), ((1.0, 1.0),)]


def test_profiles_validation():
    with pytest.raises(ValueError):
        compute_profiles([], delta=0.5)
    with pytest.raises(ValueError):
        compute_profiles([make_record("A", "i", 0, [1.0])], delta=0.0)


def test_profiles_randomized_properties():
    # Random matrices: every curve is a nondecreasing step function with
    # rho in [0,1], breakpoints at tau >= 1, and deterministic outputs.
    rng = np.random.default_rng(314)
    for _ in range(300):
        n_algos = int(rng.integers(2, 5))
        n_inst = int(rng.integers(1, 5))
        n_seeds = int(rng.integers(1, 3))
        n_rounds = int(rng.integers(2, 6))
        recs = []
        for a in range(n_algos):
            for i in range(n_inst):
                for s in range(n_seeds):
                    losses = np.concatenate([[1.0], rng.random(n_rounds - 1)])
                    recs.append(make_record(f"a{a}", f"i{i}", s, losses))
        curves = compute_profiles(recs, delta=float(rng.uniform(0.05, 0.95)))
        assert [c.algorithm for c in curves] == sorted(f"a{a}" for a in range(n_algos))
        for c in curves:
            taus = [t for t, _ in c.breakpoints]
            rhos = [r for _, r in c.breakpoints]
            assert all(t >= 1.0 for t in taus)
            assert taus == sorted(taus)
            assert len(set(taus)) == len(taus)  # deduplicated
            assert all(0.0 < r <= 1.0 for r in rhos)
            assert rhos == sorted(rhos)


def test_aggregate_median_and_quartiles():
    recs = [make_record("A", "i", s, [1.0, v]) for s, v in enumerate([1.0, 2.0, 9.0])]
    curve = aggregate_runs(recs)
    assert curve.rounds == (0, 1)
    assert curve.train_loss_median[1] == 2.0
    assert curve.train_loss_p25[1] == 1.5
    assert curve.train_loss_p75[1] == 5.5
    # permutation of the record list does not matter
    assert aggregate_runs(recs[::-1]).train_loss_median == curve.train_loss_median


def linear_quantile(values, p):
    """The p-th quantile by linear interpolation between order statistics:
    position h = (n - 1) p in the sorted values, rounded down to i, gives
    x[i] + (h - i) (x[i + 1] - x[i])."""
    x = sorted(values)
    h = (len(x) - 1) * p
    i = math.floor(h)
    return x[i] if i + 1 == len(x) else x[i] + (h - i) * (x[i + 1] - x[i])


def test_aggregate_matches_per_round_oracle():
    # Per round, the median is statistics.median of the seeds' losses and
    # the quartiles are the linear rule written out above, within 1e-12 of
    # the round's largest magnitude.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 5).flatmap(lambda rounds: st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=rounds, max_size=rounds),
        min_size=1, max_size=8)))
    def check(losses):
        curve = aggregate_runs([make_record("A", "i", s, row) for s, row in enumerate(losses)])
        assert (curve.algorithm, curve.instance) == ("A", "i")
        assert curve.rounds == tuple(range(len(losses[0])))
        for r, column in enumerate(zip(*losses)):
            scale = 1e-12 * max(abs(v) for v in column)
            for got, want in ((curve.train_loss_median[r], statistics.median(column)),
                              (curve.train_loss_p25[r], linear_quantile(column, 0.25)),
                              (curve.train_loss_p75[r], linear_quantile(column, 0.75))):
                assert abs(got - want) <= scale, (r, got, want)

    check()


def test_profiles_invariant_to_seed_labels_and_record_order():
    # Runs of one cell differ only by seed: renaming the seeds within each
    # cell and shuffling the records leaves every curve as it was. Every run
    # of an instance starts from one loss, as runs from one start point do.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.floats(0.01, 0.99), st.data())
    def check(n_algos, n_inst, n_seeds, n_rounds, delta, data):
        loss = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0))
        starts = data.draw(st.lists(loss, min_size=n_inst, max_size=n_inst), label="starts")
        cells = list(itertools.product(range(n_algos), range(n_inst)))
        records, relabelled = [], []
        for a, i in cells:
            labels = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n_seeds,
                                        max_size=n_seeds, unique=True), label="seeds")
            for s, label in enumerate(labels):
                losses = [starts[i], *data.draw(st.lists(loss, min_size=n_rounds - 1,
                                                         max_size=n_rounds - 1))]
                records.append(make_record(f"a{a}", f"i{i}", s, losses))
                relabelled.append(make_record(f"a{a}", f"i{i}", label, losses))
        shuffled = data.draw(st.permutations(relabelled), label="order")
        assert compute_profiles(shuffled, delta) == compute_profiles(records, delta)

    check()


def test_metrics_csv_round_trip_any_text_and_float(tmp_path):
    # Any finite float, -0.0, subnormals and +-1e308 included, comes back bit
    # for bit, and algorithm and instance names come back whatever commas,
    # quotes or line breaks they hold.
    path = tmp_path / "metrics.csv"
    name = st.text(st.sampled_from('ab ,"\'\n\r\té'), max_size=6)
    edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                            -1e308, 1.7976931348623157e308])
    value = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))

    @st.composite
    def record(draw, key):
        rows, cum = [], 0
        for rnd in sorted(draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=4))):
            cum += draw(st.integers(0, 10**9))
            rows.append(MetricRow(rnd, cum, *(draw(value) for _ in range(4))))
        return RunRecord(*key, config={}, rows=rows)

    def bits(row):
        return (row.round, row.cum_evals,
                *(struct.pack("<d", getattr(row, f)) for f in METRICS_HEADER[5:]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(name, name, st.integers(-2**63, 2**63 - 1)), min_size=1,
                    max_size=4, unique=True).flatmap(
                        lambda keys: st.tuples(*(record(key) for key in keys))))
    def check(records):
        write_metrics_csv(list(records), path)
        back = read_metrics_csv(path)
        assert [(r.algorithm, r.instance, r.seed) for r in back] == [
            (r.algorithm, r.instance, r.seed) for r in records]
        for got, want in zip(back, records):
            assert [bits(row) for row in got.rows] == [bits(row) for row in want.rows]

    check()


def test_aggregate_single_run_is_identity():
    rec = make_record("A", "i", 0, [1.0, 0.5, 0.25])
    curve = aggregate_runs([rec])
    assert curve.train_loss_median == (1.0, 0.5, 0.25)
    assert curve.train_loss_p25 == curve.train_loss_p75 == curve.train_loss_median


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate_runs([])
    with pytest.raises(ValueError, match="mixed"):
        aggregate_runs([make_record("A", "i", 0, [1.0]), make_record("B", "i", 1, [1.0])])
    with pytest.raises(ValueError, match="grid"):
        aggregate_runs([make_record("A", "i", 0, [1.0, 0.5]), make_record("A", "i", 1, [1.0])])


def test_run_record_validation():
    rec = RunRecord("A", "i", 0, {})
    rec.rows = [MetricRow(0, 0, 1.0, 0.0, 0.0), MetricRow(0, 10, 0.9, 0.0, 0.0)]
    with pytest.raises(ValueError, match="round"):
        rec.validate()
    rec.rows = [MetricRow(0, 10, 1.0, 0.0, 0.0), MetricRow(1, 5, 0.9, 0.0, 0.0)]
    with pytest.raises(ValueError, match="nondecreasing"):
        rec.validate()


def test_metrics_csv_round_trip_exact(tmp_path):
    # Awkward floats must survive: 1/3, tiny magnitudes, and negative zeros
    # are written with 17 significant digits.
    recs = [
        make_record("des", "synth/LR", 3, [np.log(2.0), 1.0 / 3.0, 1e-17]),
        make_record("es-csa", "synth/NSVM", 0, [1.0, 0.1 + 0.2]),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(recs, path)
    back = read_metrics_csv(path)
    assert len(back) == 2
    by_key = {(r.algorithm, r.instance, r.seed): r for r in back}
    for rec in recs:
        got = by_key[(rec.algorithm, rec.instance, rec.seed)]
        assert [(r.round, r.cum_evals) for r in got.rows] == [(r.round, r.cum_evals) for r in rec.rows]
        for a, b in zip(got.rows, rec.rows):
            assert a.train_loss == b.train_loss  # bit-exact
            assert a.wall_ms == b.wall_ms


def test_metrics_csv_header_and_line_endings(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv([make_record("A", "i", 0, [1.0])], path)
    raw = path.read_bytes()
    assert b"\r" not in raw  # unix line endings regardless of platform
    first = raw.split(b"\n", 1)[0].decode()
    assert first == "algo,instance,seed,round,cum_evals,train_loss,train_err,test_err,wall_ms"


HEADER, GOOD_ROW = ",".join(METRICS_HEADER), "des,tiny,0,0,0,0.69,0.5,0.5,1.25"


@pytest.mark.parametrize("lines, message", [
    (["nope,fields", "1,2"], "unexpected header"),
    ([HEADER, GOOD_ROW, "des,tiny,0,1,8,0.6"], "line 3: 6 fields, expected 9"),
    ([HEADER, GOOD_ROW, GOOD_ROW + ",7"], "line 3: 10 fields, expected 9"),
    ([HEADER, GOOD_ROW, "des,tiny,zero,1,8,0.6,0.5,0.5,1"], "line 3: invalid literal for int"),
    ([HEADER, GOOD_ROW, "des,tiny,0,1,8,low,0.5,0.5,1"], "line 3: could not convert"),
    ([HEADER, GOOD_ROW, "des,tiny,0,1,8,nan,0.5,0.5,1"], "line 3: train_loss is nan"),
    ([HEADER, GOOD_ROW, "des,tiny,0,1,8,0.6,inf,0.5,1"], "line 3: train_err is inf"),
    ([HEADER, GOOD_ROW, "des,tiny,0,1,8,0.6,0.5,-inf,1"], "line 3: test_err is -inf"),
    ([HEADER, GOOD_ROW, "des,tiny,0,1,8,0.6,0.5,0.5,NaN"], "line 3: wall_ms is nan"),
    ([HEADER, GOOD_ROW, "des,tiny,1,0,0,0.6,0.5,0.5,1", "des,tiny,0,0,8,0.6,0.5,0.5,1"],
     "line 4: rounds must be strictly increasing"),
    ([HEADER, GOOD_ROW, "des,tiny,0,1,8,0.6,0.5,0.5,1", "des,tiny,0,2,7,0.6,0.5,0.5,1"],
     "line 4: cumulative evaluations must be nondecreasing"),
], ids=["header", "short row", "long row", "int field", "float field", "nan loss",
        "inf train_err", "inf test_err", "nan wall_ms", "repeated round", "falling cum_evals"])
def test_metrics_csv_rejects_bad_header(tmp_path, lines, message):
    # a bad row is named by its line, whatever is wrong with it
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{message}"):
        read_metrics_csv(path)


def test_profiles_csv_format(tmp_path):
    curves = [ProfileCurve("A", ((1.0, 0.5), (2.0, 1.0))), ProfileCurve("B", ())]
    path = tmp_path / "profiles.csv"
    write_profiles_csv(curves, path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "algo,tau,rho"
    assert lines[1] == "A,1,0.5"
    assert lines[2] == "A,2,1"
    assert len(lines) == 3  # empty curve contributes no rows


def test_metric_row_defaults():
    row = MetricRow(round=0, cum_evals=0, train_loss=1.0, train_err=0.5, test_err=0.5)
    assert row.wall_ms == 0.0
