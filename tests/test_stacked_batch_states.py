"""StackedBatch as a state machine, against the per-candidate oracle.

The stacked evaluator keeps state across calls: a cache of the kept points'
margins, loss sums and squared norms, the last planned candidate until
keep, and an overflow path. A candidate brings its own plan: the machine
holds the cursor, over mixture plans in plan blocks of two kinds and over
dense candidates' products. Hypothesis drives one small batch through any
order of resets, plans, planned and unplanned mixture and dense
candidates, keeps, and candidates that overflow a margin and come back,
and checks after every step that:
- every mixture or unplanned value, and the whole cache, equal
  UnplannedStackedBatch bit for bit (which scores planned dense candidates
  by StackedBatch's own path, so the two caches stay equal through them);
- every planned dense value is within TOL of an exact recompute, and keep
  leaves the kept points' margins in the cache, within TOL of an exact
  recompute;
- the cache holds the kept points' values, within TOL of an exact recompute;
- keep leaves exactly the rejected workers' margins, sums and norms;
- every values call charges M*b evaluations;
- a candidate of either kind that comes with no plan, or after an unplanned
  candidate with no reset since, is scored exactly: bit for bit the
  standalone reference. It drops the cache, and keep after it changes
  nothing.

Column 0 of the data holds entries of 1e308 in rows with no other entry, and
every planned term at column 0 is +-2, so a candidate that moves column 0
shifts those rows' margins by +-inf per unit step (or by exactly 0, where
its repeated terms cancel): their margins are recomputed from their rows at
every candidate that moves them, and otherwise keep an exact value. So
values can be checked against an exact recompute through overflows.
Entries of 1e300 with finite shifts would leave margins near 1e308 that
planned steps move by differences, far beyond TOL once they cancel;
test_lockstep's test_mixture_value_after_an_overflowed_loss_sum and
test_planned_dense_values_stay_exact cover exact margins near +-1e308 that
overflow by differences. Planned dense draws leave column 0 alone, so the
rows whose margins are +-inf are recomputed at every one of them.
"""
from __future__ import annotations

import multiprocessing
from collections import Counter

import numpy as np
import scipy.sparse as sp
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test

from desopt import Dataset, LossKind, RegularizedObjective
from desopt import objective
from desopt.objective import PlanBlock, StackedBatch, plan_steps
from desopt.processes import recv_arrays, send_arrays
from objective_oracles import ReferenceBatchView, UnplannedStackedBatch

# as in test_lockstep: incremental margins drift from an exact recompute by a
# few ulps of the largest finite margin, and these stay below about 1e2
TOL = 1e-10
N = 4  # features; column 0 is the overflow column
HUGE_ROWS = 2  # examples 0 and 1 hold 1e308 in column 0 and nothing else
LEVELS = (0.0, 2.0, -2.0)  # the start points' column 0: margins 0 or +-inf

seen = Counter()


def close(got, exact) -> bool:
    got, exact = np.asarray(got), np.asarray(exact)
    with np.errstate(invalid="ignore"):  # inf - inf where both are inf
        near = np.abs(got - exact) <= TOL * (1.0 + np.abs(exact))
    return bool(np.all((got == exact) | near))


def equal(got, want) -> bool:
    return np.array_equal(got, want, equal_nan=True)


class StackedBatchStates(RuleBasedStateMachine):

    @initialize(loss=st.sampled_from(list(LossKind)), reg=st.sampled_from([0.0, 1e-6, 0.1]),
                workers=st.integers(1, 3), b=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def setup(self, loss, reg, workers, b, seed):
        self.rng = rng = np.random.default_rng(seed)
        examples = 10
        features = np.zeros((examples, N))
        features[:HUGE_ROWS, 0] = 1e308
        rest = features[HUGE_ROWS:, 1:]
        rest[:] = rng.normal(size=rest.shape) * (rng.random(rest.shape) < 0.5)
        data = Dataset(sp.csr_matrix(features), rng.choice([-1.0, 1.0], size=examples))
        self.rows = rng.integers(0, examples, size=(workers, b))
        self.batch = StackedBatch(RegularizedObjective(loss, data, reg), self.rows)
        self.oracle = UnplannedStackedBatch(RegularizedObjective(loss, data, reg), self.rows)
        self.views = [ReferenceBatchView(self.batch.obj, r) for r in self.rows]
        self.V = self.kept_point()
        self.calls = 0  # values calls, each charging M*b evaluations
        self.margins = False  # a reset since the last unplanned candidate
        self.cols = self.terms = self.planned = None  # the plan
        self.left = 0  # its candidates not yet scored

    def kept_point(self) -> np.ndarray:
        V = self.rng.normal(size=(len(self.rows), N)) * self.rng.choice([0.0, 0.5, 3.0])
        V[:, 0] = self.rng.choice(LEVELS, size=len(self.rows))
        return V

    def exact(self, V) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.array([view.peek_value(v) for view, v in zip(self.views, V)])

    def cache(self, batch) -> list:
        return [np.copy(c) for c in (batch._a, batch._sums, batch._sq)]

    @rule(scores=st.booleans(), new_point=st.booleans())
    def reset(self, scores, new_point):
        if new_point:
            self.V = self.kept_point()
        given = None
        if scores:
            # the training-set scores of each worker's point, as the round's
            # snapshot leaves them, at the stacked rows
            with np.errstate(over="ignore"):
                given = np.concatenate([self.batch.obj.dataset.matrix @ v for v in self.V])
            given = given.reshape(len(self.rows), -1)[np.arange(len(self.rows))[:, None], self.rows]
        with np.errstate(over="ignore", invalid="ignore"):
            got = self.batch.reset(self.V, None if given is None else given.reshape(-1))
            want = self.oracle.reset(self.V)
        assert equal(got, want) and close(got, self.exact(self.V))
        self.margins = True
        seen["reset from scores" if scores else "reset"] += 1

    @rule(steps=st.integers(1, 12), l=st.integers(1, 4), piped=st.booleans(),
          cap=st.sampled_from([1, 3, 12, objective.PLAN_ENTRIES]),
          dense_touch=st.sampled_from([0.0, 0.25, np.inf]), scale=st.sampled_from([0.01, 1.0, 5.0]))
    def plan(self, steps, l, piped, cap, dense_touch, scale):
        objective.PLAN_ENTRIES, objective.DENSE_TOUCH = cap, dense_touch
        self.cols, self.terms = self.draw(steps, l, scale)
        with np.errstate(over="ignore"):  # 1e308 * 2 at column 0
            blocks = list(self.batch.blocks(self.cols, self.terms))
        for block in blocks:
            seen["touched-row block" if block.tbounds.size else "whole-row block"] += 1
        if piped:
            # as the round-prep helper's blocks arrive: fresh arrays off a pipe
            received = []
            reader, writer = multiprocessing.Pipe(duplex=False)
            with reader, writer:
                for block in blocks:
                    send_arrays(writer, block)
                    received.append(PlanBlock(*recv_arrays(reader)))
            blocks = received
            seen["piped plan"] += 1
        self.planned = list(plan_steps(blocks))
        self.left = steps

    def draw(self, steps, l, scale):
        """The flat coordinates and terms of steps mixture candidates with l
        terms a worker; every term at column 0 is +-2."""
        workers = len(self.rows)
        cols = (self.rng.integers(0, N, size=(steps, workers, l))
                + (np.arange(workers) * N)[:, None]).reshape(steps, -1)
        return cols, np.where(cols % N == 0, self.rng.choice([2.0, -2.0], size=cols.shape),
                              self.rng.normal(size=cols.shape) * scale)

    @rule(step=st.sampled_from([0.01, 5.0]), accept=st.integers(0, 7))
    def mixture(self, step, accept):
        # the next planned mixture candidate at this step (an unplanned one
        # once the plan is spent), then keep with the accepted mask drawn
        # from the bits of `accept`
        self.candidate(step, accept)

    @rule(accept=st.integers(0, 7))
    def overflow(self, accept):
        # the next planned mixture candidate at a unit step: its column-0
        # terms move column 0 by +-2 (or not at all where they cancel), so
        # from 0 they overflow its rows' margins, and from +-2 they may bring
        # them back to 0
        self.candidate(1.0, accept)

    def candidate(self, step, accept):
        workers = len(self.rows)
        accepted = (accept >> np.arange(workers)) & 1 == 1
        if self.left:
            k = len(self.cols) - self.left
            self.left -= 1
            cols, terms, planned = self.cols[k], self.terms[k], self.planned[k]
            own = (cols, terms)  # the oracle's plan
        else:
            [cols], [terms] = self.draw(1, int(self.rng.integers(1, 5)), 1.0)
            planned = own = None
        self.calls += 1
        cand = self.V.copy()
        np.add.at(cand.reshape(-1), cols, step * terms)
        before = self.V.reshape(-1)[cols]
        if planned is None or not self.margins:
            self.unplanned(cand, (step, planned, before), (step, own, before), accepted)
            self.V[accepted] = cand[accepted]
            seen["unplanned mixture" if planned is None else "planned mixture, no cache"] += 1
            return
        kept = self.cache(self.batch)
        with np.errstate(over="ignore", invalid="ignore"):
            got = self.batch.values(cand, step, planned, before)
            want = self.oracle.values(cand, step, own, before)
        assert equal(got, want), (got, want)
        assert close(got, self.exact(cand)), (got, self.exact(cand))
        self.batch.keep(accepted)
        self.oracle.keep(accepted)
        seen["inf margin"] += bool(np.isinf(self.batch._a).any())
        seen["inf margin brought back"] += bool(np.isinf(kept[0]).any()
                                               and np.isfinite(self.batch._a).all())
        self.V[accepted] = cand[accepted]
        rejected = ~accepted
        now = self.cache(self.batch)
        assert equal(now[0].reshape(workers, -1)[rejected], kept[0].reshape(workers, -1)[rejected])
        for old, new in zip(kept[1:], now[1:]):
            assert equal(new[rejected], old[rejected])
        seen["mixed keep"] += 0 < accepted.sum() < workers
        seen["scored"] += 1

    @rule(scale=st.sampled_from([0.5, 3.0]), accept=st.integers(0, 7))
    def dense(self, scale, accept):
        # any point, column 0 included, with no step and no plan
        self.calls += 1
        self.unplanned(self.rng.normal(size=self.V.shape) * scale, (), (),
                       (accept >> np.arange(len(self.rows))) & 1 == 1)
        seen["dense"] += 1

    def unplanned(self, cand, args, oracle_args, accepted):
        """Score a candidate that the batch scores exactly (no plan, or no
        cache), then keep: the value is bit for bit the reference's, the
        cache is dropped, and keep changes nothing."""
        with np.errstate(over="ignore", invalid="ignore"):
            got = self.batch.values(cand, *args)
            want = self.oracle.values(cand, *oracle_args)
        assert equal(got, want) and equal(got, self.exact(cand)), (got, self.exact(cand))
        self.batch.keep(accepted)
        self.oracle.keep(accepted)
        assert self.batch._a is None and self.batch._candidate is None
        self.margins = False

    @rule(iters=st.integers(1, 4), short=st.booleans(), piped=st.booleans(),
          scale=st.sampled_from([0.5, 3.0]), step=st.sampled_from([0.01, 1.0, 3.0]),
          accept=st.integers(0, 7))
    def dense_block(self, iters, short, piped, scale, step, accept):
        # a block of planned dense candidates, the kept points plus step
        # times draws that leave column 0 alone, each scored from its row of
        # the products a batch of the same rows made (maybe sent over a
        # pipe, as the round-prep helper's are), by both the batch and the
        # oracle; when short, the last candidate has no products and scores
        # as an unplanned one
        workers = len(self.rows)
        draws = self.rng.normal(size=(iters, workers, N)) * scale
        draws[:, :, 0] = 0.0
        blocks = [StackedBatch(self.batch.obj, self.rows).products(draws[:iters - short])
                  for _ in range(iters > short)]
        if piped:
            reader, writer = multiprocessing.Pipe(duplex=False)
            with reader, writer:
                send_arrays(writer, blocks)
                blocks = [p.reshape(iters - short, -1) for p in recv_arrays(reader)]
        shifts = [row for block in blocks for row in block]
        for k, u in enumerate(draws):
            accepted = (accept >> np.arange(workers) + k) & 1 == 1
            cand = self.V + step * u
            self.calls += 1
            planned = shifts[k] if k < len(shifts) else None
            if planned is None or not self.margins:
                self.unplanned(cand, (step, planned), (step, planned), accepted)
                self.V[accepted] = cand[accepted]
                seen["dense, unplanned"] += 1
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                got = self.batch.values(cand, step, planned)
                want = self.oracle.values(cand, step, planned)
            assert equal(got, want) and close(got, self.exact(cand)), (got, want)
            seen["planned dense"] += 1
            seen["dense inf margin"] += bool(np.isinf(self.batch._candidate[2]).any())
            self.batch.keep(accepted)
            self.oracle.keep(accepted)
            self.V[accepted] = cand[accepted]
            seen["mixed dense keep"] += 0 < accepted.sum() < workers

    @invariant()
    def cache_holds_the_kept_values(self):
        assert self.batch.obj.eval_counter == self.calls * self.rows.size
        assert self.oracle.obj.eval_counter == self.batch.obj.eval_counter
        if not self.margins:
            return
        with np.errstate(over="ignore"):
            X = self.batch.obj.dataset.matrix
            exact = np.concatenate([X[r] @ v for r, v in zip(self.rows, self.V)])
        assert close(self.batch._a, self.batch._y * exact)
        got, want = self.cache(self.batch), self.cache(self.oracle)
        assert all(equal(g, w) for g, w in zip(got, want))
        values = got[1] / self.batch.b + 0.5 * self.batch.obj.reg * got[2]
        assert close(values, self.exact(self.V)), (values, self.exact(self.V))


def test_stacked_batch_state_machine(monkeypatch):
    # plan() sets PLAN_ENTRIES and DENSE_TOUCH; monkeypatch puts them back
    monkeypatch.setattr(objective, "PLAN_ENTRIES", objective.PLAN_ENTRIES)
    monkeypatch.setattr(objective, "DENSE_TOUCH", objective.DENSE_TOUCH)
    seen.clear()
    run_state_machine_as_test(StackedBatchStates, settings=settings(
        max_examples=300, stateful_step_count=50, deadline=None, derandomize=True))
    assert min(seen[k] for k in (
        "reset", "reset from scores", "touched-row block", "whole-row block", "piped plan",
        "unplanned mixture", "planned mixture, no cache", "inf margin",
        "inf margin brought back", "mixed keep", "dense", "planned dense", "dense inf margin",
        "dense, unplanned", "mixed dense keep")) > 0, seen
