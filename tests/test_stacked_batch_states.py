"""StackedBatch as a state machine, against the unplanned oracle.

The stacked evaluator keeps state across calls: a cache of the kept points'
margins, losses, loss sums and squared norms, a queue of planned candidates
in plan blocks of two kinds, an undo record and an overflow path. Hypothesis
drives one small batch through any order of resets, plans, mixture and dense
candidates, keeps and moves that overflow a margin and come back, and checks
after every step that:
- every value and the whole cache equal UnplannedStackedBatch bit for bit;
- the cache holds the kept points' values, within TOL of an exact recompute;
- keep puts back exactly the rejected workers' margins, losses, sums and
  norms;
- every values call that scores charges M*b evaluations, and one that
  raises charges none;
- a mixture candidate raises ValueError exactly when no reset has followed
  the last dense candidate, or the plan is spent.

Column 0 of the data holds entries of 1e308 in rows with no other entry, and
the kept points' column 0 only takes the values 0 and +-2, so those rows'
margins are 0 or +-inf exactly: incremental updates and recomputes agree on
them, and values can be checked against an exact recompute through overflows.
Entries of 1e300 would need |x0| above 1.8e8 to overflow, and the squared
norms would then cancel 3e16 or more by differences, far beyond TOL. Exact
margins near +-1e308 that overflow by differences are out of reach too;
test_lockstep's test_mixture_value_after_an_overflowed_loss_sum covers them.
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
from desopt.objective import PlanBlock, StackedBatch
from desopt.processes import recv_arrays, send_arrays
from objective_oracles import ReferenceBatchView, UnplannedStackedBatch

# as in test_lockstep: incremental margins drift from an exact recompute by a
# few ulps of the largest finite margin, and these stay below about 1e2
TOL = 1e-10
N = 4  # features; column 0 is the overflow column
HUGE_ROWS = 2  # examples 0 and 1 hold 1e308 in column 0 and nothing else
LEVELS = (0.0, 2.0, -2.0)  # the kept points' column 0: margins 0 or +-inf

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
        self.calls = 0  # values calls that scored, each charging M*b evaluations
        self.fresh = False  # a reset since the last dense candidate
        self.cols, self.left = None, 0  # the plan and its candidates not yet scored

    def kept_point(self) -> np.ndarray:
        V = self.rng.normal(size=(len(self.rows), N)) * self.rng.choice([0.0, 0.5, 3.0])
        V[:, 0] = self.rng.choice(LEVELS, size=len(self.rows))
        return V

    def exact(self, V) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.array([view.peek_value(v) for view, v in zip(self.views, V)])

    def cache(self, batch) -> list:
        return [np.copy(c) for c in (batch._a, batch._loss, batch._sums, batch._sq)]

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
        self.fresh = True
        seen["reset from scores" if scores else "reset"] += 1

    @rule(steps=st.integers(1, 12), l=st.integers(1, 4), piped=st.booleans(),
          cap=st.sampled_from([1, 3, 12, objective.PLAN_ENTRIES]),
          dense_touch=st.sampled_from([0.0, 0.25, np.inf]))
    def plan(self, steps, l, piped, cap, dense_touch):
        objective.PLAN_ENTRIES, objective.DENSE_TOUCH = cap, dense_touch
        workers = len(self.rows)
        self.cols = (self.rng.integers(0, N, size=(steps, workers, l))
                     + (np.arange(workers) * N)[:, None]).reshape(steps, -1)
        blocks = list(self.batch.blocks(self.cols))
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
            self.batch.plan(self.cols, received)
            seen["piped plan"] += 1
        else:
            self.batch.plan(self.cols)
        self.oracle.plan(self.cols)
        self.left = steps

    @rule(scale=st.sampled_from([0.01, 1.0, 5.0]), accept=st.integers(0, 7))
    def mixture(self, scale, accept):
        # a mixture candidate at the next planned coordinates, but for column
        # 0, then keep with the accepted mask drawn from the bits of `accept`
        self.candidate(accept, lambda flat, cols: np.add.at(
            flat, cols[cols % N != 0], self.rng.normal(size=int((cols % N != 0).sum())) * scale))

    @rule(accept=st.integers(0, 7))
    def overflow(self, accept):
        # a mixture candidate that moves each planned column-0 coordinate from
        # 0 to +-2, overflowing its rows' margins, or from +-2 back to 0
        def move(flat, cols):
            col0 = np.unique(cols[cols % N == 0])
            flat[col0] = np.where(flat[col0] == 0.0, self.rng.choice(LEVELS[1:], size=col0.size), 0.0)

        self.candidate(accept, move)

    def candidate(self, accept, move):
        workers = len(self.rows)
        accepted = (accept >> np.arange(workers)) & 1 == 1
        if not self.fresh or not self.left:
            counter = self.batch.obj.eval_counter
            try:
                self.batch.values(self.V, self.V.reshape(-1)[:0])
            except ValueError:
                seen["raise after a dense candidate" if not self.fresh else "raise, plan spent"] += 1
            else:
                raise AssertionError("a mixture candidate without reset or plan was scored")
            assert self.batch.obj.eval_counter == counter  # nothing evaluated, nothing charged
            return
        self.calls += 1
        cols = self.cols[len(self.cols) - self.left]
        self.left -= 1
        cand = self.V.copy()
        move(cand.reshape(-1), cols)
        before = self.V.reshape(-1)[cols]
        kept = self.cache(self.batch)
        with np.errstate(over="ignore", invalid="ignore"):
            got = self.batch.values(cand, before)
            want = self.oracle.values(cand, before)
        assert equal(got, want), (got, want)
        assert close(got, self.exact(cand)), (got, self.exact(cand))
        seen["inf margin"] += bool(np.isinf(self.batch._a).any())
        seen["inf margin brought back"] += bool(np.isinf(kept[0]).any()
                                               and np.isfinite(self.batch._a).all())
        self.batch.keep(accepted)
        self.oracle.keep(accepted)
        self.V[accepted] = cand[accepted]
        rejected = ~accepted
        now = self.cache(self.batch)
        for old, new in zip(kept[:2], now[:2]):
            assert equal(new.reshape(workers, -1)[rejected], old.reshape(workers, -1)[rejected])
        for old, new in zip(kept[2:], now[2:]):
            assert equal(new[rejected], old[rejected])
        seen["mixed keep"] += 0 < accepted.sum() < workers
        seen["scored"] += 1

    @rule(scale=st.sampled_from([0.5, 3.0]), accept=st.integers(0, 7))
    def dense(self, scale, accept):
        # any point, column 0 included; keep after it does nothing
        V = self.rng.normal(size=self.V.shape) * scale
        self.calls += 1
        with np.errstate(over="ignore", invalid="ignore"):
            got = self.batch.values(V)
            want = self.oracle.values(V)
        assert equal(got, want) and close(got, self.exact(V))
        accepted = (accept >> np.arange(len(self.rows))) & 1 == 1
        self.batch.keep(accepted)
        self.oracle.keep(accepted)
        assert self.batch._a is None and self.batch._undo is None
        self.fresh = False
        seen["dense"] += 1

    @invariant()
    def cache_holds_the_kept_values(self):
        assert self.batch.obj.eval_counter == self.calls * self.rows.size
        if not self.fresh:
            return
        got, want = self.cache(self.batch), self.cache(self.oracle)
        assert all(equal(g, w) for g, w in zip(got, want))
        values = got[2] / self.batch.b + 0.5 * self.batch.obj.reg * got[3]
        assert close(values, self.exact(self.V)), (values, self.exact(self.V))


def test_stacked_batch_state_machine(monkeypatch):
    # plan() sets PLAN_ENTRIES and DENSE_TOUCH; monkeypatch puts them back
    monkeypatch.setattr(objective, "PLAN_ENTRIES", objective.PLAN_ENTRIES)
    monkeypatch.setattr(objective, "DENSE_TOUCH", objective.DENSE_TOUCH)
    seen.clear()
    run_state_machine_as_test(StackedBatchStates, settings=settings(
        max_examples=150, stateful_step_count=50, deadline=None, derandomize=True))
    assert min(seen[k] for k in (
        "reset", "reset from scores", "touched-row block", "whole-row block", "piped plan",
        "raise after a dense candidate", "raise, plan spent", "inf margin",
        "inf margin brought back", "mixed keep", "dense")) > 0, seen
