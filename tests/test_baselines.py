"""Budget-matched baselines: gradient-estimate accuracy, schedule arithmetic,
vote aggregation, step-size adaptation dynamics, and evaluation parity."""
from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from desopt import (
    BaselineConfig,
    CsaState,
    LossKind,
    NonFiniteObjectiveError,
    RegularizedObjective,
    RngStream,
    SmoothingConfig,
    SynthKind,
    classification_error,
    csa_init,
    csa_population_size,
    csa_step,
    partition_uniform,
    run_es_csa,
    run_fed_zo_gd,
    run_fed_zo_sgd,
    run_zo_signsgd,
    sign_plus,
    synth_dataset,
    zo_grad_central,
)
from helpers import ScriptedGen, ScriptedStream
from objective_oracles import ReferenceBatchView
from reference_csa import reference_csa_sigma_trace


def make_cfg(**kw):
    base = dict(workers=2, rounds=3, local_iters=4, batch_size=5, alpha=0.5, seed=0)
    base.update(kw)
    return BaselineConfig(**base)


def test_smoothing_validation():
    with pytest.raises(ValueError):
        SmoothingConfig(mu=0.0)
    with pytest.raises(ValueError):
        SmoothingConfig(directions=0)


def test_zo_gradient_constant_function_is_exact_zero():
    g = zo_grad_central(lambda v: 7.25, np.ones(6), SmoothingConfig(), RngStream(0, "sm"))
    npt.assert_array_equal(g, np.zeros(6))


def test_zo_gradient_nan_raises():
    # inf - inf at both probe points makes the estimate NaN; no cell may step on it
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteObjectiveError, match="NaN"):
        zo_grad_central(lambda v: np.inf, np.zeros(3), SmoothingConfig(), RngStream(0, "sm"))


def test_zo_gradient_linear_function():
    # f(x) = a.x has (f(x+mu u) - f(x-mu u)) / 2mu = a.u exactly (up to
    # rounding), so the estimate is (a.u) u for the scripted direction.
    a = np.array([2.0, -1.0, 0.5])
    u = np.array([1.0, 1.0, -2.0])
    stream = ScriptedStream(ScriptedGen(normals=[u]))
    g = zo_grad_central(lambda v: float(a @ v), np.zeros(3), SmoothingConfig(mu=1e-4), stream)
    npt.assert_allclose(g, float(a @ u) * u, rtol=1e-8)


def test_zo_gradient_direction_averaging():
    a = np.array([1.0, 2.0])
    us = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    stream = ScriptedStream(ScriptedGen(normals=list(us)))
    g = zo_grad_central(lambda v: float(a @ v), np.zeros(2), SmoothingConfig(mu=1e-5, directions=3), stream)
    want = np.mean([float(a @ u) * u for u in us], axis=0)
    npt.assert_allclose(g, want, rtol=1e-7)


def test_zo_gradient_error_quarters_when_mu_halves():
    # Central differences have O(mu^2) truncation error; on a cubic the
    # third derivative is constant so halving mu divides the error by ~4.
    f = lambda v: float(v[0] ** 3)
    x = np.array([1.0])
    u = np.array([1.0])
    errs = []
    for mu in (1e-2, 5e-3, 2.5e-3):
        stream = ScriptedStream(ScriptedGen(normals=[u]))
        g = zo_grad_central(f, x, SmoothingConfig(mu=mu), stream)
        errs.append(abs(g[0] - 3.0))
    assert errs[1] <= 0.3 * errs[0]
    assert errs[2] <= 0.3 * errs[1]


def test_sign_plus_cases():
    npt.assert_array_equal(sign_plus(np.array([-3.0, 0.0, 2.0])), [-1.0, 1.0, 1.0])
    out = sign_plus(np.random.default_rng(0).normal(size=50))
    assert set(np.unique(out)) <= {-1.0, 1.0}


def test_majority_vote_aggregation():
    votes = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    npt.assert_array_equal(sign_plus(votes.sum(axis=0)), [1.0, -1.0])
    # an even split resolves to +1 through the tie rule
    tie = np.array([[1.0], [-1.0]])
    npt.assert_array_equal(sign_plus(tie.sum(axis=0)), [1.0])


def test_half_iters_arithmetic_and_warnings():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(1, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 10, RngStream(2, "synth"))
    with pytest.raises(ValueError):
        run_fed_zo_gd(make_cfg(local_iters=1), train, test, LossKind.LR)
    with pytest.warns(UserWarning, match="forfeit"):
        run_fed_zo_gd(make_cfg(local_iters=5, rounds=1), train, test, LossKind.LR)


def test_budget_parity_across_baselines():
    # M*K*b = 2*4*10 = 80 per round; N = 40 gives the population ES
    # lambda = 2 and an identical 80-evaluation round (lambda * N).
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 40, RngStream(3, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 12, RngStream(4, "synth"))
    cfg = make_cfg(workers=2, rounds=3, local_iters=4, batch_size=10)
    per_round = 2 * 4 * 10
    for runner in (run_fed_zo_gd, run_fed_zo_sgd, run_zo_signsgd, run_es_csa):
        record = runner(cfg, train, test, LossKind.LR)
        assert [r.cum_evals for r in record.rows] == [t * per_round for t in range(4)], runner.__name__


def test_budget_cap_stops_early():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 30, RngStream(5, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 10, RngStream(6, "synth"))
    cfg = make_cfg(rounds=10, max_evals=100)  # 2*2*5 = 20 descent-step evals/round... see below
    record = run_fed_zo_gd(cfg, train, test, LossKind.LR)
    # per round: M * K' * 2 * b = 2*2*2*5 = 40. Rounds start while cum < 100,
    # so exactly three run (0 -> 40 -> 80 -> 120) out of the configured ten.
    assert [r.cum_evals for r in record.rows] == [0, 40, 80, 120]


def replay_zo(runner, cfg, train, smoothing):
    """The iterates of a zeroth-order baseline run one worker at a time: one
    ReferenceBatchView row gather per minibatch and one-point zo_grad_central
    calls on ReferenceBatchView.value, from the same keyed streams. Returns the
    iterates and the evaluation ledger after each round."""
    obj = RegularizedObjective(LossKind.LR, train)
    partition = partition_uniform(train, cfg.workers, RngStream(cfg.seed, "partition"))
    k_prime = cfg.local_iters // 2
    xs, ledger = [np.zeros(train.n_features)], [0]
    for t in range(cfg.rounds):
        x, finals = xs[-1], []
        for i, shard in enumerate(partition.worker_shards):
            batch_gen = RngStream(cfg.seed, t, i, "batch").gen
            sm_stream = RngStream(cfg.seed, t, i, "smoothing")
            # fed-zo-gd keeps one minibatch per round; the others draw one per step
            views = [ReferenceBatchView(obj, shard[batch_gen.integers(0, len(shard), size=cfg.batch_size)])
                     for _ in range(1 if runner is run_fed_zo_gd else k_prime)]
            xi, g_sum = x.copy(), np.zeros_like(x)
            for k in range(k_prime):
                view = views[min(k, len(views) - 1)]
                if runner is run_zo_signsgd:
                    g_sum += zo_grad_central(view.value, x, smoothing, sm_stream)
                    continue
                g = zo_grad_central(view.value, xi, smoothing, sm_stream)
                if runner is run_fed_zo_gd:
                    xi -= cfg.alpha / ((k + 1) * math.sqrt(t + 1)) * g
                else:
                    xi -= cfg.alpha / math.sqrt((k + 1) * (t + 1)) * g
            finals.append(sign_plus(g_sum / k_prime) if runner is run_zo_signsgd else xi)
        if runner is run_zo_signsgd:
            xs.append(x - cfg.alpha / math.sqrt(t + 1) * sign_plus(np.sum(finals, axis=0)))
        else:
            xs.append(np.mean(finals, axis=0))
        ledger.append(obj.eval_counter)
    return obj, xs, ledger


@pytest.mark.parametrize("runner", [run_fed_zo_gd, run_fed_zo_sgd, run_zo_signsgd],
                         ids=lambda runner: runner.__name__)
def test_zo_runners_match_manual_replay(runner):
    train = synth_dataset(SynthKind.NOISY_LINEAR, 5, 60, RngStream(7, "synth"))
    test = synth_dataset(SynthKind.NOISY_LINEAR, 5, 20, RngStream(8, "synth"))
    cfg = make_cfg(workers=3, rounds=2, local_iters=4, batch_size=6, alpha=0.25, seed=9)
    smoothing = SmoothingConfig(directions=2)
    record = runner(cfg, train, test, LossKind.LR, smoothing=smoothing)

    obj, xs, ledger = replay_zo(runner, cfg, train, smoothing)
    assert [row.cum_evals for row in record.rows] == ledger
    for row, x in zip(record.rows, xs, strict=True):
        loss, err = obj.eval_full_and_error(x)
        npt.assert_allclose(row.train_loss, loss, rtol=0)
        npt.assert_allclose(row.train_err, err, rtol=0)
        npt.assert_allclose(row.test_err, classification_error(x, test), rtol=0)


def test_all_baselines_deterministic_and_thread_invariant():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 60, RngStream(10, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 20, RngStream(11, "synth"))
    cfg = make_cfg(workers=3, rounds=2, local_iters=4, batch_size=5, seed=4)
    csa_cfg = make_cfg(workers=3, rounds=2, local_iters=4, batch_size=30, seed=4)
    for runner in (run_fed_zo_gd, run_fed_zo_sgd, run_zo_signsgd, run_es_csa):
        c = csa_cfg if runner is run_es_csa else cfg
        fields = lambda rec: [(r.round, r.cum_evals, r.train_loss, r.train_err, r.test_err)
                              for r in rec.rows]
        a = fields(runner(c, train, test, LossKind.NSVM))
        b = fields(runner(c, train, test, LossKind.NSVM))
        assert a == b, runner.__name__


def test_csa_population_size_arithmetic():
    assert csa_population_size(10, 100, 1000, 100_000) == 10
    assert csa_population_size(2, 4, 10, 40) == 2
    assert csa_population_size(10, 100, 1000, 399_999) == 3  # round(2.5006)
    with pytest.raises(ValueError, match="population"):
        csa_population_size(1, 2, 10, 1000)


def test_csa_init_and_validation():
    state = csa_init(np.zeros(4), lam=7, sigma0=0.5)
    assert state.lam == 7 and state.mu_sel == 3
    npt.assert_allclose(state.weights.sum(), 1.0, rtol=1e-15)
    assert state.sigma == 0.5
    npt.assert_array_equal(state.p_sigma, np.zeros(4))
    with pytest.raises(ValueError):
        CsaState(np.zeros(2), 1.0, np.zeros(2), lam=1, mu_sel=1, weights=np.ones(1))
    with pytest.raises(ValueError):
        CsaState(np.zeros(2), 1.0, np.zeros(2), lam=4, mu_sel=5, weights=np.ones(5) / 5)
    with pytest.raises(ValueError):
        CsaState(np.zeros(2), 1.0, np.zeros(2), lam=4, mu_sel=2, weights=np.array([0.9, 0.9]))


def test_csa_step_zero_draws_keep_mean_shrink_sigma():
    state = csa_init(np.ones(3), lam=6, sigma0=1.0)
    draws = np.zeros((6, 3))
    values = np.arange(6.0)
    new = csa_step(state, draws, values)
    npt.assert_array_equal(new.mean, np.ones(3))
    assert new.sigma < state.sigma  # zero-length path reads as too-short steps


def test_csa_step_identical_selected_rows():
    state = csa_init(np.zeros(2), lam=4, sigma0=2.0)
    c = np.array([0.5, -1.0])
    draws = np.vstack([c, c, np.array([5.0, 5.0]), np.array([-5.0, 5.0])])
    values = np.array([0.0, 0.0, 10.0, 10.0])
    new = csa_step(state, draws, values)
    npt.assert_allclose(new.mean, 2.0 * c, rtol=1e-15)  # mean + sigma * c


def test_csa_step_selects_lowest_values():
    state = csa_init(np.zeros(2), lam=4, sigma0=1.0)
    draws = np.array([[9.0, 0.0], [1.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
    values = np.array([5.0, 1.0, 2.0, 9.0])
    new = csa_step(state, draws, values)
    npt.assert_allclose(new.mean, [1.5, 0.0], rtol=1e-15)  # rows 1 and 2 averaged


def test_csa_step_validates_shapes():
    state = csa_init(np.zeros(2), lam=4, sigma0=1.0)
    with pytest.raises(ValueError):
        csa_step(state, np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        csa_step(state, np.zeros((4, 2)), np.zeros(5))


def test_csa_sigma_dynamics_match_reference():
    # Step-size grows while far from the optimum and collapses once centered
    # on it; the independent textbook implementation agrees on both regimes.
    n, lam, rounds = 8, 10, 50
    sphere = lambda v: float(v @ v)

    for seed in (0, 1, 2):
        # package implementation driven by raw draws
        def package_trace(x0):
            state = csa_init(np.array(x0, dtype=float), lam, sigma0=0.5)
            gen = RngStream(seed, "csa-dyn").gen
            out = [state.sigma]
            for _ in range(rounds):
                draws = gen.standard_normal((lam, n))
                values = np.array([sphere(state.mean + state.sigma * d) for d in draws])
                state = csa_step(state, draws, values)
                out.append(state.sigma)
            return np.array(out)

        far = package_trace(np.full(n, 100.0))
        near = package_trace(np.zeros(n))
        assert far[-1] > 3.0 * far[0], "sigma should grow far from the optimum"
        assert near[-1] < 0.2 * near[0], "sigma should shrink at the optimum"

        ref_far = reference_csa_sigma_trace(sphere, np.full(n, 100.0), 0.5, lam, rounds,
                                            np.random.default_rng(seed))
        ref_near = reference_csa_sigma_trace(sphere, np.zeros(n), 0.5, lam, rounds,
                                             np.random.default_rng(seed + 100))
        assert ref_far[-1] > 3.0 * ref_far[0]
        assert ref_near[-1] < 0.2 * ref_near[0]


def test_es_csa_population_error_propagates():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 1000, RngStream(12, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 100, RngStream(13, "synth"))
    cfg = make_cfg(workers=2, local_iters=4, batch_size=10)  # 80 evals over N=1000
    with pytest.raises(ValueError, match="population"):
        run_es_csa(cfg, train, test, LossKind.LR)


def test_baselines_descend_on_separable_data():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 8, 240, RngStream(14, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 8, 60, RngStream(15, "synth"))
    cfg = make_cfg(workers=4, rounds=12, local_iters=10, batch_size=12, alpha=1.0, seed=3)
    csa_cfg = make_cfg(workers=4, rounds=12, local_iters=10, batch_size=12, alpha=1.0, seed=3)
    for runner in (run_fed_zo_gd, run_fed_zo_sgd, run_zo_signsgd, run_es_csa):
        c = csa_cfg if runner is run_es_csa else cfg
        rec = runner(c, train, test, LossKind.LR)
        assert rec.rows[-1].train_loss < rec.rows[0].train_loss, runner.__name__


def test_round0_snapshot_at_zero():
    train = synth_dataset(SynthKind.NOISY_LINEAR, 4, 40, RngStream(16, "synth"))
    test = synth_dataset(SynthKind.NOISY_LINEAR, 4, 10, RngStream(17, "synth"))
    rec = run_fed_zo_sgd(make_cfg(rounds=0), train, test, LossKind.LR)
    assert len(rec.rows) == 1
    assert rec.rows[0].train_loss == np.log(2.0)
    assert rec.rows[0].wall_ms == 0.0


def test_algorithm_labels():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(18, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 10, RngStream(19, "synth"))
    cfg = make_cfg(rounds=1, batch_size=4)
    csa_cfg = make_cfg(rounds=1, batch_size=20)  # lambda = 2*4*20/40 = 4
    assert run_fed_zo_gd(cfg, train, test, LossKind.LR).algorithm == "fed-zo-gd"
    assert run_fed_zo_sgd(cfg, train, test, LossKind.LR).algorithm == "fed-zo-sgd"
    assert run_zo_signsgd(cfg, train, test, LossKind.LR).algorithm == "zo-signsgd"
    assert run_es_csa(csa_cfg, train, test, LossKind.LR).algorithm == "es-csa"
