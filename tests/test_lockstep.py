"""Lockstep rounds and the stacked evaluator against exact references.

des_round advances all M workers together and scores their candidates
through one StackedBatch. Dense candidates take the full stacked matvec, so a
dense round must equal, bit for bit, the per-worker (1+1)-ES that evaluates
every candidate with the standalone ReferenceBatchView.value. Sparse mixture
candidates update cached margins and squared norms incrementally, so their
values equal an exact
recompute only up to rounding: within TOL, relative to 1 + |value|. Whole
mixture trajectories are therefore not compared with the reference (a
near-tie may be decided either way); each step is checked instead. Planned
mixture rounds, which look up every candidate's entries at the start of the
round, must equal the unplanned oracle bit for bit. The
zeroth-order baselines score their dense central differences through the
same stacked evaluator, so their stacked estimates must equal per-worker
one-point estimates on ReferenceBatchView.value bit for bit.
"""
from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from desopt import (
    Dataset,
    DesConfig,
    LossKind,
    MutationKind,
    MutationModel,
    RegularizedObjective,
    RngStream,
    RoundMetrics,
    ServerState,
    SmoothingConfig,
    des_round,
    momentum_update,
    partition_uniform,
    step_size,
    zo_grad_central,
)
from desopt import objective, server
from desopt.baselines import _zo_grads
from desopt.localsolver import DENSE_BLOCK, LocalConfig, dense_draws, mixture_draws, run_lockstep_es
from desopt.mutation import draw_terms
from desopt.objective import StackedBatch
from objective_oracles import ReferenceBatchView, UnplannedStackedBatch, column_entries
from recording import recording

# Incremental margins drift from an exact recompute by a few ulps of the
# largest margin per update (about 1e-14 after 1500 updates on the benchmark
# data); values here stay below 1e3, so 1e-10 leaves a wide margin.
TOL = 1e-10


def close(got, exact) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - exact) <= TOL * (1.0 + np.abs(exact))))


def worker_views(state, cfg, obj, partition):
    return [ReferenceBatchView(obj, partition.minibatch(i, RngStream(cfg.seed, state.t, i, "batch"),
                                                        cfg.batch_size)) for i in range(cfg.workers)]


def reference_round(state, cfg, obj, partition):
    """One dense DES round with each worker run on its own, one
    ReferenceBatchView.value call per candidate."""
    step0 = step_size(cfg.alpha, state.t, 0)
    finals, accepted, values = [], [], []
    for i, view in enumerate(worker_views(state, cfg, obj, partition)):
        gen = RngStream(cfg.seed, state.t, i, "mutation").gen
        v, f, kept = state.x.copy(), view.peek_value(state.x), 0
        for k in range(cfg.local_iters):
            candidate = v + step0 * (k + 1) ** -0.5 * gen.standard_normal(cfg.model.n)
            f_candidate = view.value(candidate)
            if f_candidate <= f:
                v, f, kept = candidate, f_candidate, kept + 1
        finals.append(v)
        accepted.append(kept)
        values.append(f)
    metrics = RoundMetrics(evals=cfg.workers * cfg.local_iters * cfg.batch_size,
                           accepted=tuple(accepted), worker_values=tuple(values))
    return next_state(state, cfg, finals), metrics


def next_state(state, cfg, finals):
    m = momentum_update(state.m, np.mean(np.asarray(finals), axis=0) - state.x, cfg.beta)
    return ServerState(x=state.x + m, m=m, t=state.t + 1)


def dataset(draw, n, examples):
    density = draw(st.sampled_from([0.02, 0.05, 0.1, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.normal(size=(examples, n)) * (rng.random((examples, n)) < density)
    return Dataset(sp.csr_matrix(features), rng.choice([-1.0, 1.0], size=examples)), rng


@st.composite
def rounds(draw):
    n = draw(st.integers(1, 40))
    workers = draw(st.integers(1, 4))
    data, rng = dataset(draw, n, draw(st.integers(4, 160)))
    kind = draw(st.sampled_from(list(MutationKind)))
    cfg = DesConfig(
        workers=workers, rounds=1, local_iters=draw(st.integers(1, 8)),
        # shards hold examples // workers rows or one more, so larger batches repeat rows
        batch_size=draw(st.integers(1, 48)), alpha=draw(st.sampled_from([0.1, 1.0, 3.0])),
        model=MutationModel(kind, n, l=draw(st.one_of(st.integers(1, 3), st.integers(1, 2 * n + 2)))),
        seed=draw(st.integers(0, 1000)), beta=0.5,
    )
    loss = draw(st.sampled_from(list(LossKind)))
    reg = draw(st.sampled_from([0.0, 1e-6, 0.1]))
    state = ServerState(x=rng.normal(size=n) * draw(st.sampled_from([0.0, 0.5, 3.0])),
                        m=rng.normal(size=n) * 0.1, t=draw(st.integers(0, 5)))
    return data, cfg, loss, reg, state


def check_mixture_round(state, cfg, obj, partition, seen):
    """Run des_round with a recording evaluator and check every step against
    the reference draws and an exact recompute; returns the evaluations."""
    batches = recording(StackedBatch)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "StackedBatch", batches)
        got_state, got = des_round(state, cfg, obj, partition)
    [batch] = batches.made
    assert len(batch.steps) == cfg.local_iters
    kept_values = batch.kept_values()
    views = worker_views(state, cfg, obj, partition)
    finals = []
    for i, view in enumerate(views):
        # the reference draws the same per-round block from the worker's stream
        idx, terms = draw_terms(cfg.model, RngStream(cfg.seed, state.t, i, "mutation").gen,
                                cfg.local_iters)
        v, moved, matched = state.x, 0, 0
        for k, (step, f_k) in enumerate(zip(batch.steps, kept_values[:, i])):
            candidate = v.copy()
            np.add.at(candidate, idx[k], step_size(cfg.alpha, state.t, k) * terms[k])
            assert np.array_equal(step.candidates[i], candidate)
            assert close(step.values[i], view.peek_value(candidate))
            v_k = step.kept[i]
            # rejected workers get their coordinates back bit for bit
            assert np.array_equal(v_k, v) or np.array_equal(v_k, candidate)
            matched += np.array_equal(v_k, candidate)
            moved += not np.array_equal(v_k, v)
            assert close(f_k, view.peek_value(v_k)), (k, f_k, view.peek_value(v_k))
            v = v_k
        assert moved <= got.accepted[i] <= matched
        assert got.worker_values[i] == f_k
        seen["accepted"] += moved
        finals.append(v)
    want_state = next_state(state, cfg, finals)
    assert np.array_equal(got_state.x, want_state.x)
    assert np.array_equal(got_state.m, want_state.m)
    assert got_state.t == want_state.t
    assert got.evals == cfg.workers * cfg.local_iters * cfg.batch_size
    return got.evals


def test_lockstep_round_matches_per_worker_reference():
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rounds())
    def check(case):
        data, cfg, loss, reg, state = case
        partition = partition_uniform(data, cfg.workers, RngStream(cfg.seed, "partition"))
        obj = RegularizedObjective(loss, data, reg)
        if cfg.model.is_mixture:
            seen["mixture"] += 1
            assert obj.eval_counter == 0
            assert check_mixture_round(state, cfg, obj, partition, seen) == obj.eval_counter
            return
        seen["dense"] += 1
        ref_obj = RegularizedObjective(loss, data, reg)
        want_state, want = reference_round(state, cfg, ref_obj, partition)
        got_state, got = des_round(state, cfg, obj, partition)
        assert np.array_equal(got_state.x, want_state.x)
        assert np.array_equal(got_state.m, want_state.m)
        assert got_state.t == want_state.t
        assert got == want
        assert obj.eval_counter == ref_obj.eval_counter == want.evals

    check()
    assert seen["dense"] > 0 and seen["mixture"] > 0 and seen["accepted"] > 0, seen


def sparse_dataset(n, examples, seed):
    rng = np.random.default_rng(seed)
    features = sp.random(examples, n, density=0.01, random_state=rng, format="csr")
    return Dataset(features, rng.choice([-1.0, 1.0], size=examples)), rng


def test_dense_round_in_several_chunks_matches_reference():
    # The property above has n <= 40, where a whole round is one mutation
    # block; at n = 20000 the 8 iterations are drawn in blocks of 3, 3 and 2.
    n = 20000
    assert DENSE_BLOCK // n == 3
    data, rng = sparse_dataset(n, 60, seed=5)
    cfg = DesConfig(workers=3, rounds=1, local_iters=8, batch_size=16, alpha=0.02,
                    model=MutationModel(MutationKind.STANDARD_GAUSSIAN, n), seed=11)
    state = ServerState(x=rng.normal(size=n) * 0.01, m=rng.normal(size=n) * 0.01, t=1)
    partition = partition_uniform(data, cfg.workers, RngStream(cfg.seed, "partition"))
    obj, ref_obj = (RegularizedObjective(LossKind.LR, data, 1e-6) for _ in range(2))
    want_state, want = reference_round(state, cfg, ref_obj, partition)
    got_state, got = des_round(state, cfg, obj, partition)
    assert np.array_equal(got_state.x, want_state.x)
    assert np.array_equal(got_state.m, want_state.m)
    assert got == want
    assert obj.eval_counter == ref_obj.eval_counter == want.evals
    assert 0 < sum(got.accepted) < cfg.workers * cfg.local_iters, got.accepted


def test_dense_mutation_blocks_are_memory_bounded():
    # One block for the whole round would hold M * K * n = 2 * 64 * 50000
    # doubles (51.2 MB); chunked, each block holds one iteration (0.8 MB).
    workers, iters, n = 2, 64, 50000
    data, rng = sparse_dataset(n, 20, seed=6)
    batch = StackedBatch(RegularizedObjective(LossKind.LR, data, 1e-6),
                         rng.integers(0, len(data), size=(workers, 8)))
    V = np.zeros((workers, n))
    cfg = LocalConfig(iters=iters, model=MutationModel(MutationKind.STANDARD_GAUSSIAN, n),
                      step0=0.1)
    f_start = batch.reset(V)
    tracemalloc.start()
    try:
        draws = dense_draws(cfg.model, [RngStream(0, i).gen for i in range(workers)], iters)
        run_lockstep_es(V, cfg, batch, draws, f_start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


@st.composite
def kept_states(draw):
    n = draw(st.integers(1, 30))
    data, rng = dataset(draw, n, draw(st.integers(1, 40)))
    if draw(st.booleans()):
        matrix = data.matrix.toarray()
        matrix[:, rng.integers(0, n)] = 0.0  # a column with no entries
        data = Dataset(sp.csr_matrix(matrix), data.labels)
    workers = draw(st.integers(1, 4))
    # rows drawn with replacement from up to 40 examples, so batch rows repeat
    rows = rng.integers(0, len(data), size=(workers, draw(st.integers(1, 48))))
    l = draw(st.one_of(st.integers(1, 3), st.integers(1, 2 * n + 2)))
    loss = draw(st.sampled_from(list(LossKind)))
    reg = draw(st.sampled_from([0.0, 1e-6, 0.1]))
    V = rng.normal(size=(workers, n)) * draw(st.sampled_from([0.0, 0.5, 3.0]))
    return data, rows, l, loss, reg, V, rng, draw(st.integers(0, 4))


def mixture_candidate(V, l, rng):
    """Perturb l random coordinates (repeats allowed) of every row of V in
    place; returns the flat coordinates and their values before."""
    workers, n = V.shape
    cols = (rng.integers(0, n, size=(workers, l)) + (np.arange(workers) * n)[:, None]).reshape(-1)
    before = V.reshape(-1)[cols]
    np.add.at(V.reshape(-1), cols, rng.normal(size=cols.size) * rng.choice([0.01, 1.0, 5.0]))
    return cols, before


def test_incremental_mixture_value_matches_exact_recompute(monkeypatch):
    # A round's worth of candidates, planned at once in blocks of a random
    # cap: every value stays within TOL of an exact recompute through many
    # keep and restore steps, in both kinds of plan block, while the ledger,
    # the points' restored coordinates and a rejected worker's cached state
    # (margins, loss sum, squared norm) come back exact.
    seen = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kept_states(), st.sampled_from([1, 40, 300, objective.PLAN_ENTRIES]))
    def check(case, cap):
        data, rows, l, loss, reg, V, rng, warmup = case
        monkeypatch.setattr(objective, "PLAN_ENTRIES", cap)
        obj = RegularizedObjective(loss, data, reg)
        batch = StackedBatch(obj, rows)
        views = [ReferenceBatchView(obj, r) for r in rows]
        workers, n = V.shape
        steps = 1 + 10 * warmup
        cols = (rng.integers(0, n, size=(steps, workers, l))
                + (np.arange(workers) * n)[:, None]).reshape(steps, -1)
        for block in batch.blocks(cols):
            seen["touched-row block" if block.tbounds.size else "block touching most rows"] += 1
        batch.reset(V)
        batch.plan(cols)
        for k in range(steps):
            kept = V.copy()
            cached = [batch._a.reshape(workers, -1).copy(), batch._sums.copy(), batch._sq.copy()]
            before = V.reshape(-1)[cols[k]]
            np.add.at(V.reshape(-1), cols[k],
                      rng.normal(size=cols[k].size) * rng.choice([0.01, 1.0, 5.0]))
            counter = obj.eval_counter
            got = batch.values(V, before)
            assert obj.eval_counter - counter == rows.size
            exact = np.array([view.peek_value(v) for view, v in zip(views, V)])
            assert close(got, exact), (k, got, exact)
            ok = rng.random(workers) < 0.5
            undo = np.repeat(~ok, l)
            V.reshape(-1)[cols[k][undo]] = before[undo]
            batch.keep(ok)
            assert np.array_equal(V[~ok], kept[~ok])
            assert np.array_equal(batch._a.reshape(workers, -1)[~ok], cached[0][~ok])
            assert np.array_equal(batch._sums[~ok], cached[1][~ok])
            assert np.array_equal(batch._sq[~ok], cached[2][~ok])
            seen["mixed keep"] += 0 < ok.sum() < workers
        seen["duplicate index"] += any(len(np.unique(c)) < len(c) for c in cols)
        seen["empty column"] += (np.diff(data.matrix.tocsc().indptr)[cols % n] == 0).any()
        seen["repeated row"] += any(len(np.unique(r)) < len(r) for r in rows)
        seen["20 steps or more"] += steps >= 20

    check()
    assert min(seen[k] for k in ("duplicate index", "empty column", "repeated row", "mixed keep",
                                 "block touching most rows", "touched-row block",
                                 "20 steps or more")) > 0, seen


def test_plan_blocks_hand_out_each_candidates_entries_and_touched_rows(monkeypatch):
    # Against a per-candidate lookup in a CSC of all rows: each candidate's
    # unique coordinates, first occurrences and entry counts, its entries'
    # rows and y-scaled values, and (in a block that does not touch most
    # rows) the candidate's touched rows, which must be np.unique of its
    # entry rows.
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kept_states(), st.integers(1, 12), st.sampled_from([1, 6, 40, objective.PLAN_ENTRIES]))
    def check(case, steps, cap):
        data, rows, l, loss, reg, V, rng, _ = case
        monkeypatch.setattr(objective, "PLAN_ENTRIES", cap)
        batch = StackedBatch(RegularizedObjective(loss, data, reg), rows)
        workers, n = V.shape
        cols = (rng.integers(0, n, size=(steps, workers, l))
                + (np.arange(workers) * n)[:, None]).reshape(steps, -1)
        csc = batch._X.tocsc()
        csc.data *= batch._y[csc.indices]
        planned = list(objective._plan_steps(batch.blocks(cols)))
        assert len(planned) == steps
        for row, (unique, first, counts, entry_rows, data_, touched) in zip(cols, planned):
            want, want_first = np.unique(row, return_index=True)
            assert np.array_equal(unique, want) and np.array_equal(first, want_first)
            pos, want_counts = column_entries(csc.indptr, want)
            assert np.array_equal(counts, want_counts)
            assert np.array_equal(entry_rows, csc.indices[pos])
            assert np.array_equal(data_, csc.data[pos])
            if touched is None:
                seen["block touching most rows"] += 1
                continue
            assert np.array_equal(touched, np.unique(entry_rows))
            seen["touched-row block"] += 1
            seen["a row touched twice"] += len(touched) < len(entry_rows)
            seen["no row touched"] += len(touched) == 0

    check()
    assert min(seen[k] for k in ("block touching most rows", "touched-row block",
                                 "a row touched twice", "no row touched")) > 0, seen


def test_reset_from_the_snapshots_scores_equals_the_product():
    # A round that starts where the last snapshot was taken takes its start
    # margins from the snapshot's training-set scores: bit for bit the
    # stacked product's, with no gather made. Another point, or the point
    # written over in place after the snapshot, gets no scores.
    seen = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kept_states())
    def check(case):
        data, rows, l, loss, reg, V, rng, _ = case
        obj = RegularizedObjective(loss, data, reg)
        x = V[0].copy()
        V[:] = x
        assert obj.kept_scores(x) is None
        obj.eval_full_and_error(x)
        scores = obj.kept_scores(x.copy())
        planned, exact = StackedBatch(obj, rows), StackedBatch(obj, rows)
        assert np.array_equal(planned.reset(V, scores[planned.rows]), exact.reset(V))
        assert "_X" not in vars(planned)
        assert np.array_equal(planned._a, exact._a)
        assert np.array_equal(planned._sums, exact._sums)
        moved = x.copy()
        moved[rng.integers(0, len(x))] += 1.0
        assert obj.kept_scores(moved) is None
        x[:] = moved
        assert obj.kept_scores(x) is None
        seen["x = 0" if not V.any() else "x != 0"] += 1

    check()
    assert min(seen[k] for k in ("x = 0", "x != 0")) > 0, seen


OVERFLOWS = {"touched rows": (range(40), [-1e8]), "most rows": (range(2), [-1e8]),
             "touched rows, inf margins": (range(40), [-1e10]),
             "most rows, inf margins": (range(2), [-1e10])}


@pytest.mark.parametrize("rows, moves, loss", [
    *(pytest.param(rows, moves, loss, id=f"{name}-{loss}")
      for name, (rows, moves) in OVERFLOWS.items() for loss in (LossKind.LR, LossKind.LSVM)),
    *(pytest.param(rows, [1e8, -1e8], LossKind.NSVM,
                   id=f"{name}, margins overflowed by differences-LossKind.NSVM")
      for name, rows in (("touched rows", range(40)), ("most rows", range(2))))])
def test_mixture_value_after_an_overflowed_loss_sum(rows, moves, loss):
    # Rows 0 and 1 have entries of 1e300 in column 0. At x0 = -1e8 each loses
    # about 1e308 and their worker's loss sum overflows to inf; at x0 = -1e10
    # their margins overflow to -inf too. Moving x0 back to 0 brings both
    # margins back to 0 exactly, but an inf sum cannot come back by
    # differences, nor an inf margin (inf - inf is NaN): both are taken
    # afresh, and the value equals an exact recompute in both kinds of plan
    # block. Under NSVM, moving x0 from 1e8 to -1e8 overflows the margins by
    # differences (1e308 - 2e308) where the exact margins are -1e308, while
    # the loss stays finite: the moved margins are taken afresh too.
    features = np.zeros((40, 2))
    features[:2, 0], features[2:, 1] = 1e300, 1.0
    data = Dataset(sp.csr_matrix(features), np.ones(40))
    obj = RegularizedObjective(loss, data, 1e-6)
    batch, view = StackedBatch(obj, [list(rows)]), ReferenceBatchView(obj, list(rows))
    cols = np.zeros((len(moves) + 1, 1), dtype=np.int64)
    blocks = list(batch.blocks(cols))
    assert all((block.tbounds.size == 0) == (len(rows) == 2) for block in blocks)
    V = np.zeros((1, 2))
    batch.reset(V)
    batch.plan(cols)
    values = []
    with np.errstate(over="ignore", invalid="ignore"):  # inf, then inf - inf
        for x0 in [*moves, 0.0]:
            before = V[0, :1].copy()
            V[0, 0] = x0
            values.append(batch.values(V, before))
            batch.keep(np.array([True]))
            want = view.peek_value(V[0])
            assert values[-1] == want or close(values[-1], want), (x0, values[-1], want)
    # the first move overflows the LR and LSVM loss sums; NSVM's loss stays finite
    assert np.isinf(values[0]).all() == (loss is not LossKind.NSVM)
    assert np.array_equal(batch._a, np.zeros(len(rows)))


def test_dense_values_are_stateless():
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kept_states())
    def check(case):
        data, rows, l, loss, reg, V, rng, calls = case
        obj = RegularizedObjective(loss, data, reg)
        batch = StackedBatch(obj, rows)
        views = [ReferenceBatchView(obj, r) for r in rows]
        if rng.random() < 0.5:
            batch.reset(V)
            seen["reset first"] += 1
        # dense candidates with random keep masks between them, as a DES
        # round or a zeroth-order step makes them
        for _ in range(calls + 1):
            candidates = V + rng.normal(size=V.shape) * rng.choice([0.01, 1.0, 5.0])
            counter = obj.eval_counter
            got = batch.values(candidates)
            assert obj.eval_counter - counter == rows.size
            want = np.array([view.peek_value(v) for view, v in zip(views, candidates)])
            assert np.array_equal(got, want), (got, want)
            ok = rng.random(len(V)) < 0.5
            batch.keep(ok)
            V[ok] = candidates[ok]
            seen["mixed keep"] += 0 < ok.sum() < len(ok)
        # the margins cached before a dense candidate are stale after it
        cols, before = mixture_candidate(V, l, rng)
        batch.plan(cols[None])
        counter = obj.eval_counter
        with pytest.raises(ValueError):
            batch.values(V, before)
        assert obj.eval_counter == counter  # a candidate that raises is not charged
        seen["loss " + loss.value] += 1
        seen["reg 0" if reg == 0 else "reg > 0"] += 1

    check()
    assert min(seen[k] for k in ("reset first", "mixed keep", "loss LR", "loss NSVM",
                                 "loss LSVM", "reg 0", "reg > 0")) > 0, seen


def test_planned_rounds_match_unplanned_oracle(monkeypatch):
    # The planned evaluator slices each candidate's entries out of blocks made
    # at the start of the round; the oracle looks them up per candidate in a
    # CSC of all rows, with np.unique for its touched rows. Both make the same
    # floating-point operations in the same order, whatever the kind of plan
    # block, so two chained mixture rounds must agree bit for bit: every
    # recorded step, the server states, the round metrics and the ledger.
    seen = Counter()
    blocks = []
    column_entries = objective._column_entries

    def counted(indptr, cols):
        blocks.append(len(cols))
        return column_entries(indptr, cols)

    monkeypatch.setattr(objective, "_column_entries", counted)
    plan_blocks = objective._plan_blocks

    def kinds(*args):
        for block in plan_blocks(*args):
            seen["touched-row block" if block.tbounds.size else "block touching most rows"] += 1
            yield block

    monkeypatch.setattr(objective, "_plan_blocks", kinds)

    def run(evaluator, data, cfg, loss, reg, state, partition):
        batches = recording(evaluator)
        monkeypatch.setattr(server, "StackedBatch", batches)
        obj = RegularizedObjective(loss, data, reg)
        rounds_out = []
        for _ in range(2):
            state, metrics = des_round(state, cfg, obj, partition)
            rounds_out.append((state, metrics))
        return rounds_out, batches.made, obj.eval_counter

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rounds().filter(lambda case: case[1].model.is_mixture),
           st.sampled_from([1, 6, 40, objective.PLAN_ENTRIES]))
    def check(case, cap):
        data, cfg, loss, reg, state = case
        monkeypatch.setattr(objective, "PLAN_ENTRIES", cap)
        partition = partition_uniform(data, cfg.workers, RngStream(cfg.seed, "partition"))
        del blocks[:]
        got_rounds, got_batches, got_evals = run(StackedBatch, data, cfg, loss, reg, state,
                                                 partition)
        planned_blocks = len(blocks)
        want_rounds, want_batches, want_evals = run(UnplannedStackedBatch, data, cfg, loss, reg,
                                                    state, partition)
        for (got_state, got), (want_state, want) in zip(got_rounds, want_rounds):
            assert np.array_equal(got_state.x, want_state.x)
            assert np.array_equal(got_state.m, want_state.m)
            assert got_state.t == want_state.t
            assert got == want
        assert ([len(batch.steps) for batch in got_batches]
                == [len(batch.steps) for batch in want_batches] == 2 * [cfg.local_iters])
        for got_batch, want_batch in zip(got_batches, want_batches):
            assert np.array_equal(got_batch.start, want_batch.start)
            assert np.array_equal(got_batch.kept_values(), want_batch.kept_values())
            for step, want_step in zip(got_batch.steps, want_batch.steps):
                # the same candidates (so the same steps), every candidate's
                # value, rejected ones included, the same masks and kept points
                assert np.array_equal(step.candidates, want_step.candidates)
                assert np.array_equal(step.values, want_step.values)
                assert np.array_equal(step.accepted, want_step.accepted)
                assert np.array_equal(step.kept, want_step.kept)
        assert got_evals == want_evals == 2 * cfg.workers * cfg.local_iters * cfg.batch_size
        seen["several plan blocks"] += planned_blocks > 2
        for i in range(cfg.workers):
            idx = draw_terms(cfg.model, RngStream(cfg.seed, state.t, i, "mutation").gen,
                             cfg.local_iters)[0]
            rows = partition.minibatch(i, RngStream(cfg.seed, state.t, i, "batch"), cfg.batch_size)
            column_nnz = np.diff(data.matrix[rows].tocsc().indptr)
            seen["drawn empty column"] += bool((column_nnz[idx] == 0).any())
            seen["repeated coordinate"] += bool((np.diff(np.sort(idx, axis=1), axis=1) == 0).any())
            seen["repeated row"] += len(np.unique(rows)) < len(rows)
        seen["accepted"] += sum(got.accepted)

    check()
    assert min(seen[k] for k in ("several plan blocks", "drawn empty column",
                                 "repeated coordinate", "repeated row", "accepted",
                                 "block touching most rows", "touched-row block")) > 0, seen


def test_mixture_candidates_follow_the_plan():
    data, rng = sparse_dataset(30, 40, seed=8)
    batch = StackedBatch(RegularizedObjective(LossKind.LR, data, 1e-6),
                         rng.integers(0, len(data), size=(2, 10)))
    V = rng.normal(size=(2, 30))
    batch.reset(V)
    cols, before = mixture_candidate(V, 3, rng)
    with pytest.raises(ValueError, match="plan"):
        batch.values(V, before)  # no plan yet
    batch.plan(cols[None])
    batch.values(V, before)
    with pytest.raises(ValueError, match="plan"):
        batch.values(V, before)  # past the planned candidates


def test_mixture_plan_blocks_are_memory_bounded():
    # Every column of this data is dense, so a candidate of 2 workers with
    # l = n = 40 touches about 2 * 25 columns * 100 rows = 5000 entries, and a
    # round of 400 iterations about 2M. Planned in one block, their positions,
    # rows and values peak at about 43 MB; in blocks of PLAN_ENTRIES (2**18)
    # entries the round peaks at about 12 MB.
    workers, iters, n, b = 2, 400, 40, 100
    rng = np.random.default_rng(9)
    data = Dataset(sp.csr_matrix(rng.normal(size=(200, n))), rng.choice([-1.0, 1.0], size=200))
    batch = StackedBatch(RegularizedObjective(LossKind.LR, data, 1e-6),
                         rng.integers(0, len(data), size=(workers, b)))
    V = np.zeros((workers, n))
    cfg = LocalConfig(iters=iters, model=MutationModel(MutationKind.MIXTURE_RADEMACHER, n, l=n),
                      step0=0.1)
    f_start = batch.reset(V)
    tracemalloc.start()
    try:
        cols, terms = mixture_draws(cfg.model, [RngStream(0, i).gen for i in range(workers)], iters)
        batch.plan(cols)
        run_lockstep_es(V, cfg, batch, (cols, terms), f_start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


@st.composite
def zo_steps(draw):
    n = draw(st.integers(1, 30))
    data, rng = dataset(draw, n, draw(st.integers(1, 40)))
    workers = draw(st.integers(1, 5))
    # rows drawn with replacement from up to 40 examples, so batch rows repeat
    rows = rng.integers(0, len(data), size=(workers, draw(st.integers(1, 48))))
    smoothing = SmoothingConfig(mu=draw(st.sampled_from([1e-6, 1e-3, 0.5])),
                                directions=draw(st.integers(1, 3)))
    loss = draw(st.sampled_from(list(LossKind)))
    reg = draw(st.sampled_from([0.0, 1e-6, 0.1]))
    X = rng.normal(size=(workers, n)) * draw(st.sampled_from([0.0, 0.5, 3.0]))
    return data, rows, smoothing, loss, reg, X, draw(st.integers(0, 1000))


def test_stacked_zo_grads_match_per_worker_estimates():
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(zo_steps())
    def check(case):
        data, rows, smoothing, loss, reg, X, seed = case
        obj, ref_obj = RegularizedObjective(loss, data, reg), RegularizedObjective(loss, data, reg)
        batch, views = StackedBatch(obj, rows), [ReferenceBatchView(ref_obj, r) for r in rows]
        streams = [RngStream(seed, i, "smoothing") for i in range(len(rows))]
        ref_streams = [RngStream(seed, i, "smoothing") for i in range(len(rows))]
        # two estimates on the same minibatches, as fed-zo-gd takes its local steps
        for step in range(2):
            got = _zo_grads(batch.values, X, smoothing, streams)
            want = np.array([zo_grad_central(view.value, x, smoothing, stream)
                             for view, x, stream in zip(views, X, ref_streams)])
            assert np.array_equal(got, want), (got, want)
            assert obj.eval_counter == ref_obj.eval_counter
            assert obj.eval_counter == (step + 1) * 2 * smoothing.directions * rows.size
            X = X - 0.1 * got
        seen["repeated row"] += any(len(np.unique(r)) < len(r) for r in rows)
        seen["several workers"] += len(rows) > 1
        seen["several directions"] += smoothing.directions > 1
        seen["nonzero estimate"] += bool(np.any(got))

    check()
    assert min(seen[k] for k in ("repeated row", "several workers", "several directions",
                                 "nonzero estimate")) > 0, seen
