"""Server orchestration: momentum algebra, round mechanics, budget accounting,
scheduling independence, and end-to-end descent."""
from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from desopt import (
    BETA_LIMIT,
    DesConfig,
    LossKind,
    MutationKind,
    MutationModel,
    NonFiniteObjectiveError,
    PartitionPlan,
    RegularizedObjective,
    RngStream,
    ServerState,
    SplitSpec,
    SynthKind,
    average_displacement,
    des_round,
    momentum_update,
    partition_uniform,
    run_des,
    split_train_test,
    step_size,
    synth_dataset,
)
from helpers import StubObjective, StubView

GAUSS = MutationModel(MutationKind.STANDARD_GAUSSIAN, 4)


def make_cfg(**kw):
    base = dict(workers=2, rounds=3, local_iters=4, batch_size=5, alpha=1.0,
                model=GAUSS, seed=0, beta=0.5)
    base.update(kw)
    return DesConfig(**base)


def test_momentum_update_identities():
    m = np.array([2.0, 0.0])
    d = np.array([0.0, 2.0])
    npt.assert_array_equal(momentum_update(m, d, 0.5), [1.0, 1.0])
    npt.assert_array_equal(momentum_update(m, d, 0.0), d)
    npt.assert_array_equal(momentum_update(np.zeros(2), d, 0.5), [0.0, 1.0])


def test_momentum_update_validation():
    with pytest.raises(ValueError):
        momentum_update(np.zeros(2), np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        momentum_update(np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        momentum_update(np.zeros(2), np.zeros(2), -0.1)


def test_momentum_geometric_approach():
    # Iterating with a constant displacement contracts toward it at rate beta.
    beta = 0.5
    d = np.array([1.0, -2.0])
    m = np.zeros(2)
    for t in range(1, 20):
        m = momentum_update(m, d, beta)
        npt.assert_allclose(np.linalg.norm(m - d), beta**t * np.linalg.norm(d), rtol=1e-12)


def test_beta_limit_value_and_enforcement():
    npt.assert_allclose(BETA_LIMIT, 0.5946035575013605, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        make_cfg(beta=0.6)
    with pytest.raises(ValueError):
        make_cfg(beta=BETA_LIMIT)
    make_cfg(beta=0.59)  # just below the limit: fine
    make_cfg(beta=0.6, allow_unsafe_beta=True)  # explicit override
    with pytest.raises(ValueError):
        make_cfg(beta=1.0, allow_unsafe_beta=True)  # hard range stays closed


def test_small_batch_warning():
    with pytest.warns(UserWarning, match="sqrt"):
        make_cfg(batch_size=2, rounds=25)
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("error")
        make_cfg(batch_size=5, rounds=25)  # 5 = sqrt(25): no warning


def test_config_validation():
    for bad in (dict(workers=0), dict(rounds=-1), dict(local_iters=0),
                dict(batch_size=0), dict(alpha=0.0)):
        with pytest.raises(ValueError):
            make_cfg(**bad)


def test_average_displacement_identity():
    x = np.array([1.0, 2.0])
    c = np.array([0.5, -0.5])
    finals = [x + c, x + c, x + c]
    npt.assert_allclose(average_displacement(x, finals), c, rtol=1e-15)
    # exact zero when every worker returns the broadcast point unchanged
    npt.assert_array_equal(average_displacement(x, [x.copy(), x.copy()]), [0.0, 0.0])


def test_des_round_all_rejected_is_fixed_point():
    # Candidates always evaluate worse than the parent: every worker returns
    # x unchanged, d = 0, and with m = 0 the incumbent does not move.
    cfg = make_cfg(workers=2, beta=0.5)
    partition = PartitionPlan(worker_shards=(np.array([0, 1]), np.array([2, 3])))
    state = ServerState(x=np.array([1.0, -1.0, 0.5, 0.0]), m=np.zeros(4), t=0)
    stub = StubObjective(StubView(parent_value=1.0, candidate_value=2.0))
    new_state, metrics = des_round(state, cfg, lambda i: stub, partition)
    npt.assert_array_equal(new_state.x, state.x)
    npt.assert_array_equal(new_state.m, np.zeros(4))
    assert new_state.t == 1
    assert metrics.accepted == (0, 0)
    assert metrics.evals == 2 * 4 * 5


def test_des_round_schedule_is_exact():
    # The step sequence every worker sees at round t must equal
    # step_size(alpha, t, k) bit for bit.
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(3, "synth"))
    from desopt import RegularizedObjective

    for t in (0, 3):
        cfg = make_cfg(workers=2, local_iters=4, batch_size=3, alpha=2.0)
        obj = RegularizedObjective(LossKind.LR, train)
        from desopt import partition_uniform
        partition = partition_uniform(train, 2, RngStream(cfg.seed, "partition"))
        state = ServerState.initial(4)
        state.t = t
        steps: dict[int, list[float]] = {0: [], 1: []}
        des_round(state, cfg, lambda i: obj, partition,
                  trace_factory=lambda i: lambda k, s, v, f: steps[i].append(s))
        for i in (0, 1):
            assert steps[i] == [step_size(2.0, t, k) for k in range(4)]


@pytest.mark.parametrize("path", ["stacked", "callable"])
def test_des_round_nan_start_raises(path):
    # Views of one objective go through the stacked evaluator; views of
    # distinct objectives are called one point at a time. Both must refuse a
    # NaN parent value instead of ranking against it.
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(3, "synth"))
    objs = [RegularizedObjective(LossKind.LR, train) for _ in range(2)]
    factory = (lambda i: objs[0]) if path == "stacked" else (lambda i: objs[i])
    partition = partition_uniform(train, 2, RngStream(0, "partition"))
    state = ServerState(x=np.array([0.5, np.nan, 0.0, 1.0]), m=np.zeros(4), t=0)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteObjectiveError, match="start point"):
        des_round(state, make_cfg(), factory, partition)


def test_des_round_nan_candidate_raises():
    partition = PartitionPlan(worker_shards=(np.array([0, 1]), np.array([2, 3])))
    stub = StubObjective(StubView(parent_value=1.0, candidate_value=float("nan")))
    with pytest.raises(NonFiniteObjectiveError):
        des_round(ServerState.initial(4), make_cfg(), lambda i: stub, partition)


def test_round_and_run_eval_accounting():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 60, RngStream(4, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 20, RngStream(5, "synth"))
    cfg = make_cfg(workers=3, rounds=4, local_iters=6, batch_size=7,
                   model=MutationModel(MutationKind.STANDARD_GAUSSIAN, 6))
    record = run_des(cfg, train, test, LossKind.LR)
    per_round = 3 * 6 * 7
    assert [r.cum_evals for r in record.rows] == [t * per_round for t in range(5)]
    assert [r.round for r in record.rows] == list(range(5))


def test_run_des_round0_at_zero():
    train = synth_dataset(SynthKind.NOISY_LINEAR, 5, 50, RngStream(6, "synth"))
    test = synth_dataset(SynthKind.NOISY_LINEAR, 5, 20, RngStream(7, "synth"))
    cfg = make_cfg(workers=2, rounds=0, batch_size=4,
                   model=MutationModel(MutationKind.STANDARD_GAUSSIAN, 5))
    record = run_des(cfg, train, test, LossKind.LR)
    assert len(record.rows) == 1
    row = record.rows[0]
    assert row.round == 0 and row.cum_evals == 0
    assert row.train_loss == np.log(2.0)  # x0 = 0, reg term vanishes
    assert row.wall_ms == 0.0


def test_run_des_budget_cap():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 5, 40, RngStream(8, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 5, 10, RngStream(9, "synth"))
    model = MutationModel(MutationKind.STANDARD_GAUSSIAN, 5)
    per_round = 2 * 4 * 5
    cfg = make_cfg(workers=2, rounds=10, local_iters=4, batch_size=5,
                   model=model, max_evals=per_round + 1)
    record = run_des(cfg, train, test, LossKind.LR)
    # rounds are atomic: a round starts only while cum < max_evals and is
    # never truncated, so the cap lands us at 2 rounds out of 10
    assert [r.cum_evals for r in record.rows] == [0, per_round, 2 * per_round]


def test_run_des_deterministic_and_seed_sensitivity():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 60, RngStream(10, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 20, RngStream(11, "synth"))
    model = MutationModel(MutationKind.MIXTURE_GAUSSIAN, 6, 2)
    mk = lambda seed: run_des(make_cfg(workers=3, rounds=3, batch_size=4, model=model, seed=seed),
                              train, test, LossKind.NSVM)
    a, b, c = mk(1), mk(1), mk(2)
    assert [(r.train_loss, r.train_err, r.test_err) for r in a.rows] == \
           [(r.train_loss, r.train_err, r.test_err) for r in b.rows]
    assert [r.train_loss for r in a.rows] != [r.train_loss for r in c.rows]


def test_thread_count_does_not_change_results():
    train = synth_dataset(SynthKind.NOISY_LINEAR, 8, 120, RngStream(12, "synth"))
    test = synth_dataset(SynthKind.NOISY_LINEAR, 8, 30, RngStream(13, "synth"))
    model = MutationModel(MutationKind.STANDARD_GAUSSIAN, 8)
    cfg = make_cfg(workers=8, rounds=3, local_iters=5, batch_size=6, model=model)
    rows = {}
    for threads in (None, 2, 4):
        rec = run_des(cfg, train, test, LossKind.LR, threads=threads)
        rows[threads] = [(r.round, r.cum_evals, r.train_loss, r.train_err, r.test_err, r.wall_ms)
                         for r in rec.rows]
    assert rows[None] == rows[2] == rows[4]


def test_run_des_descends_on_synthetic():
    # End-to-end sanity: a modest budget cuts the logistic loss well below
    # its starting value on separable data.
    full = synth_dataset(SynthKind.SEPARABLE_LINEAR, 10, 600, RngStream(14, "synth"))
    train, test = split_train_test(full, SplitSpec(0.8, RngStream(14, "split")))
    model = MutationModel(MutationKind.STANDARD_GAUSSIAN, 10)
    cfg = make_cfg(workers=4, rounds=25, local_iters=20, batch_size=16,
                   model=model, alpha=1.0, beta=0.5)
    record = run_des(cfg, train, test, LossKind.LR)
    assert record.rows[0].train_loss == np.log(2.0)
    assert record.rows[-1].train_loss < 0.5 * record.rows[0].train_loss
    assert record.rows[-1].train_err < 0.5
    assert record.algorithm == "des"


def test_algo_ids_by_model():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(15, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 10, RngStream(16, "synth"))
    for kind, name in [
        (MutationKind.STANDARD_GAUSSIAN, "des"),
        (MutationKind.MIXTURE_GAUSSIAN, "des-mg"),
        (MutationKind.MIXTURE_RADEMACHER, "des-mr"),
    ]:
        cfg = make_cfg(rounds=1, model=MutationModel(kind, 4, 2))
        assert run_des(cfg, train, test, LossKind.LR).algorithm == name


def test_state_initial():
    s = ServerState.initial(3)
    npt.assert_array_equal(s.x, np.zeros(3))
    npt.assert_array_equal(s.m, np.zeros(3))
    assert s.t == 0
