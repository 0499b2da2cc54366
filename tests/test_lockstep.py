"""Lockstep DES rounds against a per-worker reference.

des_round advances all M workers together and evaluates their candidates
through one StackedBatch, which recomputes only the batch rows a sparse
mixture candidate touches unless the touched entries cover a large share of
the batch. Either way the round must equal, bit for bit, the per-worker
(1+1)-ES that evaluates every candidate with BatchView.value.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
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
    des_round,
    momentum_update,
    partition_uniform,
    step_size,
)
from desopt.mutation import draw_terms
from desopt.objective import StackedBatch


def reference_round(state, cfg, obj, partition):
    """One DES round with each worker run on its own, one BatchView.value
    call per candidate, as the round was computed before workers ran in lockstep."""
    t, model = state.t, cfg.model
    step0 = step_size(cfg.alpha, t, 0)
    finals, accepted, values = [], [], []
    for i in range(cfg.workers):
        view = obj.batch(partition.minibatch(i, RngStream(cfg.seed, t, i, "batch"), cfg.batch_size))
        gen = RngStream(cfg.seed, t, i, "mutation").gen
        v, f, kept = state.x.copy(), view.peek_value(state.x), 0
        for k in range(cfg.local_iters):
            step = step0 * (k + 1) ** -0.5
            if model.is_mixture:
                idx, terms = draw_terms(model, gen)
                candidate = v.copy()
                np.add.at(candidate, idx, step * terms)
            else:
                candidate = v + step * gen.standard_normal(model.n)
            f_candidate = view.value(candidate)
            if f_candidate <= f:
                v, f, kept = candidate, f_candidate, kept + 1
        finals.append(v)
        accepted.append(kept)
        values.append(f)
    m = momentum_update(state.m, np.mean(np.asarray(finals), axis=0) - state.x, cfg.beta)
    metrics = RoundMetrics(evals=cfg.workers * cfg.local_iters * cfg.batch_size,
                           accepted=tuple(accepted), worker_values=tuple(values))
    return ServerState(x=state.x + m, m=m, t=t + 1), metrics


@st.composite
def rounds(draw):
    n = draw(st.integers(1, 40))
    examples = draw(st.integers(4, 160))
    workers = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.02, 0.05, 0.1, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.normal(size=(examples, n)) * (rng.random((examples, n)) < density)
    data = Dataset(sp.csr_matrix(features), rng.choice([-1.0, 1.0], size=examples))
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


def test_lockstep_round_matches_per_worker_reference(monkeypatch):
    branches = Counter()
    in_mixture_values = False
    values, all_rows, some_rows = StackedBatch.values, StackedBatch._all_rows, StackedBatch._some_rows

    def spy_values(self, V, cols=None):
        nonlocal in_mixture_values
        in_mixture_values = cols is not None
        try:
            return values(self, V, cols)
        finally:
            in_mixture_values = False

    def spy_all_rows(self, V):
        if in_mixture_values:
            branches["mixture, all rows"] += 1
        return all_rows(self, V)

    def spy_some_rows(self, V, rows):
        branches["mixture, touched rows"] += len(rows) > 0
        return some_rows(self, V, rows)

    monkeypatch.setattr(StackedBatch, "values", spy_values)
    monkeypatch.setattr(StackedBatch, "_all_rows", spy_all_rows)
    monkeypatch.setattr(StackedBatch, "_some_rows", spy_some_rows)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rounds())
    def check(case):
        data, cfg, loss, reg, state = case
        partition = partition_uniform(data, cfg.workers, RngStream(cfg.seed, "partition"))
        ref_obj = RegularizedObjective(loss, data, reg)
        obj = RegularizedObjective(loss, data, reg)
        want_state, want = reference_round(state, cfg, ref_obj, partition)
        got_state, got = des_round(state, cfg, lambda i: obj, partition)
        assert np.array_equal(got_state.x, want_state.x)
        assert np.array_equal(got_state.m, want_state.m)
        assert got_state.t == want_state.t
        assert got == want
        assert obj.eval_counter == ref_obj.eval_counter == want.evals

    check()
    assert branches["mixture, touched rows"] > 0 and branches["mixture, all rows"] > 0, branches
