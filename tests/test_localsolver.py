"""The local (1+1)-ES: schedule arithmetic, acceptance rule, monotone descent,
rejection restores, and the more-iterations-helps trend."""
from __future__ import annotations

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from desopt import (
    LocalConfig,
    LossKind,
    MutationKind,
    MutationModel,
    NonFiniteObjectiveError,
    RegularizedObjective,
    RngStream,
    WorkerResult,
    run_local_es,
    step_size,
)
from desopt import localsolver
from helpers import ScriptedGen, ScriptedStream, dataset_from_dense
from recording import recording

GAUSS = lambda n: MutationModel(MutationKind.STANDARD_GAUSSIAN, n)


def test_step_size_frozen_values():
    assert step_size(1.0, 0, 0) == 1.0
    assert step_size(2.0, 15, 3) == 0.5  # 2 * 16^-1/4 * 4^-1/2
    assert step_size(1.0, 0, 3) == 0.5
    npt.assert_allclose(step_size(10.0, 3, 8), 10.0 * 4.0 ** -0.25 * 9.0 ** -0.5, rtol=0, atol=0)


def test_step_size_factors_exactly():
    # The solver receives step0 = step_size(alpha, t, 0) and multiplies by
    # (k+1)^-1/2; that product must be bit-identical to step_size(alpha, t, k).
    for alpha in (0.1, 1.0, 10.0, 3.7):
        for t in (0, 1, 7, 99):
            step0 = step_size(alpha, t, 0)
            for k in (0, 1, 2, 15, 63):
                assert step0 * (k + 1) ** -0.5 == step_size(alpha, t, k)


def test_step_size_validation():
    with pytest.raises(ValueError):
        step_size(0.0, 0, 0)
    with pytest.raises(ValueError):
        step_size(-1.0, 0, 0)
    with pytest.raises(ValueError):
        step_size(1.0, -1, 0)
    with pytest.raises(ValueError):
        step_size(1.0, 0, -1)


def test_accept_rule():
    # The solver's greedy selection, one dense iteration of scripted values
    # on each worker: a worker keeps its candidate iff the candidate's value
    # is <= its parent's (ties accept, an inf parent accepts a finite
    # candidate, a worse one is rejected), and NaN at the start point or at a
    # candidate raises
    def run(f_start, f_cand):
        V = np.zeros((len(f_start), 2))
        batch = localsolver.CallableBatch([lambda v, f=f: f for f in f_cand])
        cfg = LocalConfig(iters=1, model=GAUSS(2), step0=1.0)
        f, accepted = localsolver.run_lockstep_es(V, cfg, batch, [(np.ones((len(V), 2)), None)],
                                                  f_start)
        return V, f, accepted

    V, f, accepted = run([1.0, 1.0, 1.0, np.inf, 5.0], [0.5, 1.0, 1.0 + 1e-12, 5.0, np.inf])
    assert accepted.tolist() == [1, 1, 0, 1, 0]
    assert f.tolist() == [0.5, 1.0, 1.0, 5.0, 5.0]
    assert np.array_equal(V, np.repeat(accepted[:, None], 2, axis=1).astype(float))
    with pytest.raises(NonFiniteObjectiveError, match="at the start point"):
        run([np.nan, 1.0], [0.5, 0.5])
    with pytest.raises(NonFiniteObjectiveError, match="at a candidate"):
        run([1.0, 1.0], [0.5, np.nan])


def test_solver_reads_exactly_iters_candidates():
    # One candidate an iteration and no more, of either kind: a round's
    # stream may hold more, which its reader drains itself
    for model in (GAUSS(3), MutationModel(MutationKind.MIXTURE_GAUSSIAN, 3, 2)):
        pulled = []

        def candidates():
            for k in itertools.count():
                pulled.append(k)
                # worker 0's coordinates are 0..2, worker 1's 3..5
                yield ((np.array([0, 1, 3, 5]), np.ones(4), None) if model.is_mixture
                       else (np.ones((2, 3)), None))

        cfg = LocalConfig(iters=5, model=model, step0=0.1)
        localsolver.run_lockstep_es(np.zeros((2, 3)), cfg, localsolver.CallableBatch([sphere] * 2),
                                    candidates(), [1.0, 1.0])
        assert pulled == list(range(5))


def test_local_config_validation():
    with pytest.raises(ValueError):
        LocalConfig(iters=0, model=GAUSS(2), step0=1.0)
    with pytest.raises(ValueError):
        LocalConfig(iters=1, model=GAUSS(2), step0=0.0)


def sphere(v):
    return float(v @ v)


def test_forced_improvement_accepted():
    # x=(1,0), u=(-1,0), step 1: candidate (0,0) improves and is kept.
    cfg = LocalConfig(iters=1, model=GAUSS(2), step0=1.0)
    stream = ScriptedStream(ScriptedGen(normals=[[-1.0, 0.0]]))
    res = run_local_es(np.array([1.0, 0.0]), cfg, sphere, stream)
    npt.assert_array_equal(res.v_final, [0.0, 0.0])
    assert res.f_final == 0.0
    assert res.accepted_count == 1
    assert res.evals_used == 1


def test_forced_worsening_rejected():
    cfg = LocalConfig(iters=1, model=GAUSS(2), step0=1.0)
    stream = ScriptedStream(ScriptedGen(normals=[[1.0, 0.0]]))
    x0 = np.array([1.0, 0.0])
    res = run_local_es(x0, cfg, sphere, stream)
    npt.assert_array_equal(res.v_final, x0)
    assert res.f_final == 1.0
    assert res.accepted_count == 0


def test_tie_is_accepted():
    # Mirror candidate (-1, 0) has the same sphere value: tie, accepted.
    cfg = LocalConfig(iters=1, model=GAUSS(2), step0=2.0)
    stream = ScriptedStream(ScriptedGen(normals=[[-1.0, 0.0]]))
    res = run_local_es(np.array([1.0, 0.0]), cfg, sphere, stream)
    npt.assert_array_equal(res.v_final, [-1.0, 0.0])
    assert res.accepted_count == 1


def test_f_start_is_trusted():
    # A lying f_start below the true value forces rejections.
    cfg = LocalConfig(iters=3, model=GAUSS(2), step0=0.1)
    stream = ScriptedStream(ScriptedGen(normals=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
    x0 = np.array([1.0, 0.0])
    res = run_local_es(x0, cfg, sphere, stream, f_start=-1.0)
    npt.assert_array_equal(res.v_final, x0)
    assert res.accepted_count == 0
    assert res.f_final == -1.0


def test_mixture_rejection_restores_bitwise():
    # All candidates rejected: v must come back bit-identical to x_start even
    # with colliding mixture indices (additive updates must be undone exactly).
    rng = np.random.default_rng(40)
    x0 = rng.normal(size=4)

    for kind in (MutationKind.MIXTURE_GAUSSIAN, MutationKind.MIXTURE_RADEMACHER):
        cfg = LocalConfig(iters=50, model=MutationModel(kind, n=4, l=3), step0=0.5)
        res = run_local_es(x0.copy(), cfg, lambda v: 2.0, RngStream(8, "rej", kind.value), f_start=1.0)
        npt.assert_array_equal(res.v_final, x0)
        assert res.accepted_count == 0
        assert res.f_final == 1.0


def test_x_start_not_mutated():
    x0 = np.ones(3)
    cfg = LocalConfig(iters=10, model=MutationModel(MutationKind.MIXTURE_GAUSSIAN, 3, 2), step0=0.3)
    run_local_es(x0, cfg, sphere, RngStream(3, "alias"))
    npt.assert_array_equal(x0, np.ones(3))


def test_monotone_descent_over_seeded_rounds(monkeypatch):
    # 100 independent rounds across losses and mutation kinds: the carried
    # best value never increases within a round. Exact comparisons on the
    # values the solver's evaluator returned and the masks it was kept with.
    batches = recording(localsolver.CallableBatch)
    monkeypatch.setattr(localsolver, "CallableBatch", batches)
    rng = np.random.default_rng(2025)
    kinds = [
        MutationModel(MutationKind.STANDARD_GAUSSIAN, 6),
        MutationModel(MutationKind.MIXTURE_GAUSSIAN, 6, 2),
        MutationModel(MutationKind.MIXTURE_RADEMACHER, 6, 3),
    ]
    violations = 0
    for trial in range(100):
        X = rng.normal(size=(30, 6))
        y = rng.choice([-1.0, 1.0], size=30)
        ds = dataset_from_dense(X, y)
        loss = list(LossKind)[trial % 3]
        obj = RegularizedObjective(loss, ds, reg=1e-6)
        view = obj.batch(rng.integers(0, 30, size=8))
        cfg = LocalConfig(iters=20, model=kinds[trial % 3], step0=float(rng.uniform(0.05, 2.0)))
        x_start = rng.normal(size=6)
        f_start = view.peek_value(x_start)
        run_local_es(x_start, cfg, view.value, RngStream(1000 + trial, "mono"), f_start=f_start)
        batch = batches.made[-1]
        seen = [f_start, *batch.kept_values([f_start])[:, 0]]
        for step, parent in zip(batch.steps, seen):
            if step.accepted[0] and step.values[0] > parent:
                violations += 1  # an accepted candidate worse than its parent
        for a, b in zip(seen, seen[1:]):
            if b > a:
                violations += 1
    assert len(batches.made) == 100
    assert violations == 0


def test_f_final_matches_recomputation():
    ds = dataset_from_dense(np.random.default_rng(1).normal(size=(20, 4)),
                            np.random.default_rng(2).choice([-1.0, 1.0], size=20))
    obj = RegularizedObjective(LossKind.LR, ds, reg=1e-6)
    view = obj.batch([0, 5, 5, 13])
    x0 = np.zeros(4)
    cfg = LocalConfig(iters=30, model=GAUSS(4), step0=0.5)
    res = run_local_es(x0, cfg, view.value, RngStream(17, "recompute"), f_start=view.peek_value(x0))
    assert view.peek_value(res.v_final) == res.f_final


def test_eval_accounting():
    cfg = LocalConfig(iters=7, model=GAUSS(2), step0=1.0)
    res = run_local_es(np.zeros(2), cfg, sphere, RngStream(0, "acct"), evals_per_call=25)
    assert res.evals_used == 7 * 25


def test_determinism():
    cfg = LocalConfig(iters=40, model=MutationModel(MutationKind.MIXTURE_GAUSSIAN, 5, 2), step0=0.7)
    x0 = np.arange(5, dtype=float)
    a = run_local_es(x0, cfg, sphere, RngStream(7, 3, 1, "mutation"))
    b = run_local_es(x0, cfg, sphere, RngStream(7, 3, 1, "mutation"))
    npt.assert_array_equal(a.v_final, b.v_final)
    assert a.f_final == b.f_final
    assert a.accepted_count == b.accepted_count


def test_nan_start_raises():
    cfg = LocalConfig(iters=1, model=GAUSS(2), step0=1.0)
    with pytest.raises(NonFiniteObjectiveError):
        run_local_es(np.zeros(2), cfg, lambda v: float("nan"), RngStream(0, "nan"))


def test_nan_candidate_raises():
    cfg = LocalConfig(iters=1, model=GAUSS(2), step0=1.0)
    with pytest.raises(NonFiniteObjectiveError):
        run_local_es(np.zeros(2), cfg, lambda v: float("nan"), RngStream(0, "nan2"), f_start=1.0)


def test_more_iterations_reach_lower_values():
    # On the sphere from a fixed start, the K=10^4 best is well below half the
    # K=10^2 best for every step scale tried. Distinct stream keys so the long
    # run is not a superset replay of the short one.
    x0 = np.full(10, 3.0)
    for alpha in (0.1, 1.0, 10.0):
        results = {}
        for iters, tag in ((100, "short"), (10_000, "long")):
            cfg = LocalConfig(iters=iters, model=GAUSS(10), step0=alpha)
            res = run_local_es(x0, cfg, sphere, RngStream(600, "trend", tag, str(alpha)))
            results[tag] = res.f_final
        assert results["long"] < 0.5 * results["short"], (alpha, results)
