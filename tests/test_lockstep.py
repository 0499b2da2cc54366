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
from desopt.localsolver import DENSE_BLOCK, LocalConfig, run_lockstep_es
from desopt.mutation import draw_terms
from desopt.objective import StackedBatch
from objective_oracles import ReferenceBatchView, UnplannedStackedBatch

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
    """Run des_round with per-iteration traces and check every step against
    the reference draws and an exact recompute; returns the evaluations."""
    traced = [[] for _ in range(cfg.workers)]
    got_state, got = des_round(state, cfg, obj, partition,
                               trace_factory=lambda i: lambda *step: traced[i].append(step))
    views = worker_views(state, cfg, obj, partition)
    finals = []
    for i, view in enumerate(views):
        # the reference draws the same per-round block from the worker's stream
        idx, terms = draw_terms(cfg.model, RngStream(cfg.seed, state.t, i, "mutation").gen,
                                cfg.local_iters)
        v, moved, matched = state.x, 0, 0
        for k, step_k, v_k, f_k in traced[i]:
            candidate = v.copy()
            np.add.at(candidate, idx[k], step_k * terms[k])
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
        run_lockstep_es(V, cfg, batch, [RngStream(0, i) for i in range(workers)], f_start)
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


def test_incremental_mixture_value_matches_exact_recompute():
    seen = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kept_states())
    def check(case):
        data, rows, l, loss, reg, V, rng, warmup = case
        obj = RegularizedObjective(loss, data, reg)
        batch = StackedBatch(obj, rows)
        views = [ReferenceBatchView(obj, r) for r in rows]
        batch.reset(V)
        # reach a random kept state: candidates kept or restored at random
        for _ in range(warmup):
            cols, before = mixture_candidate(V, l, rng)
            batch.plan(cols[None])
            batch.values(V, before)
            ok = rng.random(len(V)) < 0.5
            undo = np.repeat(~ok, l)
            V.reshape(-1)[cols[undo]] = before[undo]
            batch.keep(ok)
        cols, before = mixture_candidate(V, l, rng)
        batch.plan(cols[None])
        counter = obj.eval_counter
        got = batch.values(V, before)
        assert obj.eval_counter - counter == rows.size
        exact = np.array([view.peek_value(v) for view, v in zip(views, V)])
        assert close(got, exact), (got, exact)
        seen["duplicate index"] += len(np.unique(cols)) < len(cols)
        seen["empty column"] += (np.diff(data.matrix.tocsc().indptr)[cols % V.shape[1]] == 0).any()
        seen["repeated row"] += any(len(np.unique(r)) < len(r) for r in rows)

    check()
    assert min(seen[k] for k in ("duplicate index", "empty column", "repeated row")) > 0, seen


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
        with pytest.raises(ValueError):
            batch.values(V, before)
        seen["loss " + loss.value] += 1
        seen["reg 0" if reg == 0 else "reg > 0"] += 1

    check()
    assert min(seen[k] for k in ("reset first", "mixed keep", "loss LR", "loss NSVM",
                                 "loss LSVM", "reg 0", "reg > 0")) > 0, seen


def test_planned_rounds_match_unplanned_oracle(monkeypatch):
    # The planned evaluator slices each candidate's entries out of blocks made
    # at the start of the round; the oracle looks them up per candidate in a
    # CSC of all rows. Both make the same floating-point operations in the
    # same order, so two chained mixture rounds must agree bit for bit: every
    # traced step, the server states, the round metrics and the ledger.
    seen = Counter()
    blocks = []
    column_entries = objective._column_entries

    def counted(indptr, cols):
        blocks.append(len(cols))
        return column_entries(indptr, cols)

    monkeypatch.setattr(objective, "_column_entries", counted)

    def run(evaluator, data, cfg, loss, reg, state, partition):
        monkeypatch.setattr(server, "StackedBatch", evaluator)
        obj = RegularizedObjective(loss, data, reg)
        traced = [[] for _ in range(cfg.workers)]
        rounds_out = []
        for _ in range(2):
            state, metrics = des_round(state, cfg, obj, partition,
                                       trace_factory=lambda i: lambda *step: traced[i].append(step))
            rounds_out.append((state, metrics))
        return rounds_out, traced, obj.eval_counter

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rounds().filter(lambda case: case[1].model.is_mixture),
           st.sampled_from([1, 6, 40, objective.PLAN_ENTRIES]))
    def check(case, cap):
        data, cfg, loss, reg, state = case
        monkeypatch.setattr(objective, "PLAN_ENTRIES", cap)
        partition = partition_uniform(data, cfg.workers, RngStream(cfg.seed, "partition"))
        del blocks[:]
        got_rounds, got_traced, got_evals = run(StackedBatch, data, cfg, loss, reg, state,
                                                partition)
        planned_blocks = len(blocks)
        want_rounds, want_traced, want_evals = run(UnplannedStackedBatch, data, cfg, loss, reg,
                                                   state, partition)
        for (got_state, got), (want_state, want) in zip(got_rounds, want_rounds):
            assert np.array_equal(got_state.x, want_state.x)
            assert np.array_equal(got_state.m, want_state.m)
            assert got_state.t == want_state.t
            assert got == want
        for got_steps, want_steps in zip(got_traced, want_traced):
            assert len(got_steps) == len(want_steps) == 2 * cfg.local_iters
            for (k, step, v, f), want_step in zip(got_steps, want_steps):
                assert (k, step, f) == (want_step[0], want_step[1], want_step[3])
                assert np.array_equal(v, want_step[2])
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
                                 "repeated coordinate", "repeated row", "accepted")) > 0, seen


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
        run_lockstep_es(V, cfg, batch, [RngStream(0, i) for i in range(workers)], f_start)
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
