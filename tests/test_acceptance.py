"""Acceptance suite: ten numbered end-to-end criteria, one PASS/FAIL line
each. Tolerances and expected values were computed by independent oracles
before being frozen here."""
from __future__ import annotations

import contextlib
import itertools
import json
import math
import time
from time import perf_counter

import numpy as np
import numpy.testing as npt
import pytest

from desopt import (
    BaselineConfig,
    DesConfig,
    LossKind,
    MetricRow,
    MutationKind,
    MutationModel,
    RegularizedObjective,
    RngStream,
    RunRecord,
    SmoothingConfig,
    SplitSpec,
    SynthKind,
    compute_profiles,
    des_round,
    main,
    partition_uniform,
    read_metrics_csv,
    run_des,
    run_es_csa,
    run_fed_zo_gd,
    run_fed_zo_sgd,
    run_local_es,
    run_zo_signsgd,
    split_train_test,
    synth_dataset,
    write_metrics_csv,
    zo_grad_central,
)
from desopt import localsolver
from desopt.localsolver import LocalConfig
from desopt.mutation import draw_terms
from helpers import initial_state
from mutation_oracles import empirical_moments, fourth_moment_closed_form
from objective_oracles import batch_gradient
from recording import recording


@contextlib.contextmanager
def report(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {name}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {name}")


# ---------------------------------------------------------------------------
# Shared medium-scale task: separable linear data, n=20, N=4000 (80/20 split),
# logistic loss, M=4 workers, K=50 local iterations, b=64, T=40 rounds.
# Criteria 4-7 all run on this task; runs are cached across tests.

_TASK: dict = {}
_FINALS: dict = {}


def task_data():
    if "train" not in _TASK:
        full = synth_dataset(SynthKind.SEPARABLE_LINEAR, 20, 4000, RngStream(2024, "synth"))
        _TASK["train"], _TASK["test"] = split_train_test(
            full, SplitSpec(0.8, RngStream(2024, "split"))
        )
    return _TASK["train"], _TASK["test"]


def des_record(alpha, seed, beta=0.5, kind=MutationKind.STANDARD_GAUSSIAN, l=8, unsafe=False):
    key = (alpha, seed, beta, kind, l, unsafe)
    if key not in _FINALS:
        train, test = task_data()
        cfg = DesConfig(
            workers=4, rounds=40, local_iters=50, batch_size=64, alpha=alpha,
            model=MutationModel(kind, 20, l), seed=seed, beta=beta,
            allow_unsafe_beta=unsafe,
        )
        _FINALS[key] = run_des(cfg, train, test, LossKind.LR)
    return _FINALS[key]


def des_final_losses(alpha, beta=0.5, kind=MutationKind.STANDARD_GAUSSIAN, unsafe=False):
    return [des_record(alpha, s, beta=beta, kind=kind, unsafe=unsafe).rows[-1].train_loss
            for s in range(8)]


# ---------------------------------------------------------------------------


def test_criterion_01_mutation_moment_oracle():
    with report(1, "mixture moment oracle (variance band + fourth moments)"):
        t0 = time.time()
        grid = [(4, 1), (4, 2), (16, 4)]
        kinds = [MutationKind.MIXTURE_GAUSSIAN, MutationKind.MIXTURE_RADEMACHER]
        for kind in kinds:
            for n, l in grid:
                model = MutationModel(kind, n=n, l=l)
                for tag, y in [("e1", np.eye(n)[0]), ("uniform", np.full(n, 1.0 / np.sqrt(n)))]:
                    stream = RngStream(1234, "accept-m4", kind.value, n, l, tag)
                    est = empirical_moments(model, stream, y, 1_000_000)
                    if tag == "e1":
                        assert np.all(est.var_diag >= 0.99) and np.all(est.var_diag <= 1.01), \
                            (kind, n, l, est.var_diag)
                    want = fourth_moment_closed_form(model, y)
                    if est.fourth_moment_se == 0.0:
                        # degenerate case: the projection is constant, e.g.
                        # Rademacher l=1 against the uniform probe
                        npt.assert_allclose(est.fourth_moment, want, rtol=1e-12)
                    else:
                        dev = abs(est.fourth_moment - want)
                        assert dev <= 3.0 * est.fourth_moment_se, (kind, n, l, tag, dev)
        # spot-check the frozen closed forms the tolerance is anchored to
        assert fourth_moment_closed_form(
            MutationModel(MutationKind.MIXTURE_GAUSSIAN, 4, 2), np.eye(4)[0]) == 7.5
        assert fourth_moment_closed_form(
            MutationModel(MutationKind.MIXTURE_RADEMACHER, 4, 2), np.eye(4)[0]) == 3.5
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"moment oracle took {elapsed:.1f}s"


def test_criterion_02_local_monotonicity(monkeypatch):
    with report(2, "local search is nonincreasing across 100 seeded rounds"):
        batches = recording(localsolver.CallableBatch)
        monkeypatch.setattr(localsolver, "CallableBatch", batches)
        rng = np.random.default_rng(777)
        models = [
            MutationModel(MutationKind.STANDARD_GAUSSIAN, 8),
            MutationModel(MutationKind.MIXTURE_GAUSSIAN, 8, 3),
            MutationModel(MutationKind.MIXTURE_RADEMACHER, 8, 2),
        ]
        violations = 0
        for trial in range(100):
            ds = synth_dataset(SynthKind.NOISY_LINEAR, 8, 50, RngStream(3000 + trial, "synth"))
            obj = RegularizedObjective(list(LossKind)[trial % 3], ds, reg=1e-6)
            view = obj.batch(rng.integers(0, 50, size=12))
            x0 = rng.normal(size=8)
            f0 = view.peek_value(x0)
            cfg = LocalConfig(iters=30, model=models[trial % 3],
                              step0=float(rng.uniform(0.05, 2.0)))
            run_local_es(x0, cfg, view.value, RngStream(4000 + trial, "mono"), f_start=f0)
            batch = batches.made[-1]
            kept = [f0, *batch.kept_values([f0])[:, 0]]
            # no accepted candidate is worse than its parent, and the kept values never rise
            violations += sum(bool(step.accepted[0] and step.values[0] > parent)
                              for step, parent in zip(batch.steps, kept))
            violations += sum(b > a for a, b in zip(kept, kept[1:]))
        assert len(batches.made) == 100
        assert violations == 0


def test_criterion_03_budget_parity():
    with report(3, "every algorithm consumes exactly M*K*b evaluations per round"):
        # M=2, K=4 (even), b=10 -> 80 per round; N=40 makes the population ES
        # round an identical 80 (lambda = round(80/40) = 2, cost lambda*N).
        train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 40, RngStream(77, "synth"))
        test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 12, RngStream(78, "synth"))
        per_round = 2 * 4 * 10

        # direct instrumented-counter check on the main algorithm
        obj = RegularizedObjective(LossKind.LR, train)
        cfg = DesConfig(workers=2, rounds=3, local_iters=4, batch_size=10, alpha=1.0,
                        model=MutationModel(MutationKind.STANDARD_GAUSSIAN, 6), seed=0)
        partition = partition_uniform(train, 2, RngStream(0, "partition"))
        state = initial_state(6)
        for r in range(3):
            state, metrics = des_round(state, cfg, obj, partition)
            assert metrics.evals == per_round
            assert obj.eval_counter == (r + 1) * per_round

        # full runs: recorded cumulative counts (cross-checked against each
        # run's internal instrumented counter) advance by exactly 80 per round
        bcfg = BaselineConfig(workers=2, rounds=3, local_iters=4, batch_size=10,
                              alpha=0.5, seed=0)
        expected = [t * per_round for t in range(4)]
        assert [r.cum_evals for r in run_des(cfg, train, test, LossKind.LR).rows] == expected
        for runner in (run_fed_zo_gd, run_fed_zo_sgd, run_zo_signsgd, run_es_csa):
            record = runner(bcfg, train, test, LossKind.LR)
            assert [r.cum_evals for r in record.rows] == expected, runner.__name__


def test_criterion_04_step_size_insensitivity():
    with report(4, "final loss beats log 2 for alpha in {0.1,1,10}, medians within 3x"):
        t0 = time.time()
        medians = {}
        for alpha in (0.1, 1.0, 10.0):
            finals = des_final_losses(alpha)
            medians[alpha] = float(np.median(finals))
            assert medians[alpha] < math.log(2.0), (alpha, medians[alpha])
        spread = max(medians.values()) / min(medians.values())
        assert spread < 3.0, (medians, spread)
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"alpha sweep took {elapsed:.1f}s"
        print(f"  criterion 4 medians: " +
              ", ".join(f"alpha={a:g}: {m:.4f}" for a, m in medians.items()) +
              f" (spread {spread:.2f}x)")


def test_criterion_05_des_vs_escsa():
    with report(5, "DES final loss <= population-ES final loss in >= 6 of 8 seeds"):
        train, test = task_data()
        des_finals = des_final_losses(1.0)
        csa_finals = []
        for seed in range(8):
            cfg = BaselineConfig(workers=4, rounds=40, local_iters=50, batch_size=64,
                                 alpha=1.0, seed=seed)
            csa_finals.append(run_es_csa(cfg, train, test, LossKind.LR).rows[-1].train_loss)
        wins = sum(d <= c for d, c in zip(des_finals, csa_finals))
        assert wins >= 6, (wins, des_finals, csa_finals)
        print(f"  criterion 5 wins: {wins}/8")


def test_criterion_06_mixture_equivalence_and_speed():
    with report(6, "mixture sampling matches dense loss within 50% and is >= 10x faster"):
        g_median = float(np.median(des_final_losses(1.0)))
        for kind in (MutationKind.MIXTURE_GAUSSIAN, MutationKind.MIXTURE_RADEMACHER):
            med = float(np.median(des_final_losses(1.0, kind=kind)))
            rel = abs(med - g_median) / g_median
            assert rel <= 0.5, (kind, med, g_median, rel)

        # per-draw sampling microbenchmark at n = 2*10^4, l = 8
        n = 20_000
        mix = MutationModel(MutationKind.MIXTURE_GAUSSIAN, n, 8)
        gen = RngStream(5, "bench").gen

        def best_per_call(fn, reps):
            best = math.inf
            for _ in range(3):
                start = perf_counter()
                for _ in range(reps):
                    fn()
                best = min(best, (perf_counter() - start) / reps)
            return best

        t_mix = best_per_call(lambda: draw_terms(mix, gen), 2000)
        t_dense = best_per_call(lambda: gen.standard_normal(n), 200)
        speedup = t_dense / t_mix
        assert speedup >= 10.0, f"speedup {speedup:.1f}x"
        print(f"  criterion 6 sampling: mixture {t_mix * 1e6:.1f}us vs "
              f"dense {t_dense * 1e6:.1f}us per draw ({speedup:.0f}x)")


def test_criterion_07_momentum_range(tmp_path):
    with report(7, "beta in {0,0.2,0.4,0.6} all converge; beta=0.8 run emitted"):
        for beta in (0.0, 0.2, 0.4, 0.6):
            unsafe = beta >= 0.5946
            for seed in range(8):
                rec = des_record(1.0, seed, beta=beta, unsafe=unsafe)
                assert rec.rows[-1].train_loss < rec.rows[0].train_loss, (beta, seed)
        # the unstable-momentum run must complete and is recorded for manual
        # inspection, with no assertion on its loss
        rec08 = des_record(1.0, 0, beta=0.8, unsafe=True)
        assert len(rec08.rows) == 41
        out = tmp_path / "beta08_metrics.csv"
        write_metrics_csv([rec08], out)
        print(f"  criterion 7 info: beta=0.8 run final train loss "
              f"{rec08.rows[-1].train_loss:.5f} over {len(rec08.rows) - 1} rounds "
              f"(emitted to {out})")


def _fixture_record(algo, inst, losses):
    rec = RunRecord(algorithm=algo, instance=inst, seed=0, config={})
    for i, loss in enumerate(losses):
        rec.rows.append(MetricRow(round=i, cum_evals=10 * i, train_loss=float(loss),
                                  train_err=0.0, test_err=0.0))
    return rec.validate()


def test_criterion_08_profile_machinery():
    with report(8, "hand-computed profile breakpoints exact; 1000-case property"):
        # 3 algorithms x 4 instances, delta=0.5; solved rounds enumerated by
        # hand: A [2,1,1,-], B [1,2,1,-], C [3,-,1,1].
        recs = [
            _fixture_record("A", "i1", [1.0, 0.7, 0.45, 0.45, 0.45]),
            _fixture_record("B", "i1", [1.0, 0.4, 0.4, 0.4, 0.4]),
            _fixture_record("C", "i1", [1.0, 0.9, 0.8, 0.3, 0.0]),
            _fixture_record("A", "i2", [1.0, 0.45, 0.2, 0.2, 0.2]),
            _fixture_record("B", "i2", [1.0, 0.65, 0.55, 0.55, 0.55]),
            _fixture_record("C", "i2", [1.0, 0.95, 0.9, 0.85, 0.8]),
            _fixture_record("A", "i3", [1.0, 0.1, 0.0, 0.0, 0.0]),
            _fixture_record("B", "i3", [1.0, 0.3, 0.3, 0.3, 0.3]),
            _fixture_record("C", "i3", [1.0, 0.2, 0.2, 0.2, 0.2]),
            _fixture_record("A", "i4", [1.0, 0.9, 0.8, 0.7, 0.6]),
            _fixture_record("B", "i4", [1.0, 0.98, 0.97, 0.96, 0.95]),
            _fixture_record("C", "i4", [1.0, 0.2, 0.1, 0.1, 0.1]),
        ]
        curves = {c.algorithm: c for c in compute_profiles(recs, delta=0.5)}
        assert curves["A"].breakpoints == ((1.0, 0.5), (2.0, 0.75))
        assert curves["B"].breakpoints == ((1.0, 0.5), (2.0, 0.75))
        assert curves["C"].breakpoints == ((1.0, 0.5), (3.0, 0.75))

        rng = np.random.default_rng(2718)
        for _ in range(1000):
            n_algos = int(rng.integers(2, 5))
            n_inst = int(rng.integers(1, 5))
            n_rounds = int(rng.integers(2, 6))
            recs = [
                _fixture_record(f"a{a}", f"i{i}",
                                np.concatenate([[1.0], rng.random(n_rounds - 1)]))
                for a in range(n_algos) for i in range(n_inst)
            ]
            for c in compute_profiles(recs, delta=float(rng.uniform(0.05, 0.95))):
                rhos = [r for _, r in c.breakpoints]
                taus = [t for t, _ in c.breakpoints]
                assert taus == sorted(taus) and all(t >= 1.0 for t in taus)
                assert rhos == sorted(rhos)
                assert all(0.0 < r <= 1.0 for r in rhos)


def test_criterion_09_byte_identical_reruns(tmp_path):
    with report(9, "repeated runs and different --threads give byte-identical CSVs"):
        spec = {
            "datasets": [{"name": "tiny", "synthetic": "separable", "n": 6,
                          "examples": 80, "seed": 3}],
            "algorithms": [{"name": "des", "alpha": [1.0], "beta": 0.0},
                           {"name": "zo-signsgd", "alpha": [1.0]}],
            "workers": 2, "batch_size": 4, "local_iters": 2, "epochs": 1,
            "seeds": [0, 1],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        blobs = []
        for tag, threads in [("r1", "1"), ("r2", "1"), ("r3", "4")]:
            out_dir = tmp_path / tag
            code = main(["run", str(spec_path), "--out", str(out_dir), "--threads", threads])
            assert code == 0
            blobs.append(((out_dir / "metrics.csv").read_bytes(),
                          (out_dir / "profiles.csv").read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]
        assert len(read_metrics_csv(tmp_path / "r1" / "metrics.csv")) == 4


def test_criterion_10_zo_estimator_sanity():
    with report(10, "smoothed-gradient estimate aligns with the analytic gradient"):
        ds = synth_dataset(SynthKind.NOISY_LINEAR, 10, 200, RngStream(55, "synth"))
        obj = RegularizedObjective(LossKind.LR, ds, reg=1e-6)
        rng = np.random.default_rng(56)
        smoothing = SmoothingConfig(mu=1e-6, directions=10_000)
        for p in range(10):
            view = obj.batch(rng.integers(0, 200, size=32))
            x = rng.normal(size=10) * 0.5
            g_true = batch_gradient(view, x)
            g_est = zo_grad_central(view.peek_value, x, smoothing, RngStream(57, "zo", p))
            cos = float(g_est @ g_true / (np.linalg.norm(g_est) * np.linalg.norm(g_true)))
            assert cos > 0.9, (p, cos)

        # constant objectives produce exactly zero
        g0 = zo_grad_central(lambda v: 42.0, np.ones(7), SmoothingConfig(), RngStream(58, "zo"))
        npt.assert_array_equal(g0, np.zeros(7))
