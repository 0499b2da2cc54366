"""Experiment spec parsing, overrides, the end-to-end run matrix, CSV
reproducibility, and command exit codes."""
from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import multiprocessing
import os
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desopt import BETA_LIMIT, LossKind, cli, dataio, load_spec, main, read_metrics_csv
from desopt.cli import AlgoSpec, ExperimentSpec, _apply_overrides, _build_spec, _dimension_rule
from helpers import refuse_forks


def write_spec(path, **overrides):
    raw = {
        "datasets": [{"name": "tiny", "synthetic": "separable", "n": 6, "examples": 80, "seed": 3}],
        "algorithms": [
            {"name": "des", "alpha": [1.0], "beta": 0.0},
            {"name": "fed-zo-gd", "alpha": [1.0]},
        ],
        "workers": 2,
        "batch_size": 4,
        "local_iters": 2,
        "epochs": 1,
        "seeds": [0, 1],
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_load_spec_defaults(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "datasets": [{"name": "d", "synthetic": "noisy", "n": 4, "examples": 10}],
        "algorithms": [{"name": "des"}],
    }), encoding="utf-8")
    spec = load_spec(path)
    assert spec.workers == 10
    assert spec.batch_size == 1000
    assert spec.local_iters is None and spec.epochs is None
    assert spec.split_fraction == 0.8
    assert spec.reg == 1e-6
    assert spec.delta == 0.1
    assert spec.seeds == tuple(range(8))
    assert spec.losses == (LossKind.LR,)
    algo = spec.algorithms[0]
    assert algo.alphas == (0.1, 1.0, 10.0)
    assert algo.beta == 0.5
    assert algo.model == "gaussian"
    assert algo.mixture_size == 8


def test_load_spec_unknown_keys(tmp_path):
    base = {
        "datasets": [{"name": "d", "synthetic": "noisy", "n": 4, "examples": 10}],
        "algorithms": [{"name": "des"}],
    }
    for mutate, needle in [
        (lambda r: r.update(frobnicate=1), "frobnicate"),
        (lambda r: r["datasets"][0].update(shape=3), "shape"),
        (lambda r: r["algorithms"][0].update(momentum=0.5), "momentum"),
        # keys that only another algorithm or another kind of dataset reads
        (lambda r: r["algorithms"].append({"name": "fed-zo-gd", "beta": 0.9,
                                           "allow_unsafe_beta": True}),
         r"'beta' in algorithms\[1\]"),
        (lambda r: r["algorithms"].append({"name": "es-csa", "model": "mixture_gaussian",
                                           "l": 3}),
         r"'model' in algorithms\[1\]"),
        (lambda r: r["algorithms"].append({"name": "zo-signsgd", "l": 3}), r"'l' in algorithms"),
        (lambda r: r["datasets"][0].update(n_features=4), "n_features"),
        (lambda r: r["datasets"][0].update(label_threshold=0.5), "label_threshold"),
        (lambda r: r["datasets"].append({"name": "p", "path": "x.svm", "n": 4}),
         r"'n' in datasets"),
        (lambda r: r["datasets"].append({"name": "p", "path": "x.svm", "examples": 9}),
         "examples"),
    ]:
        raw = json.loads(json.dumps(base))
        mutate(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=needle):
            load_spec(path)


VALID_SPEC = {
    "datasets": [{"name": "d", "synthetic": "noisy", "n": 4, "examples": 10, "seed": 1},
                 {"name": "p", "path": "x.svm", "label_threshold": 0.5, "n_features": 4}],
    "losses": ["LR", "NSVM"],
    "algorithms": [{"name": "des", "alpha": [0.5, 2.0], "beta": 0.25,
                    "model": "mixture_gaussian", "l": 3, "allow_unsafe_beta": False},
                   {"name": "es-csa", "alpha": 1.0}],
    "workers": 2, "batch_size": 4, "local_iters": None, "epochs": 3,
    "split_fraction": 0.7, "reg": 1e-4, "delta": 0.2, "seeds": [0, 5], "out_dir": "o",
}
TOP_KEYS = ("datasets", "losses", "algorithms", "workers", "batch_size", "local_iters",
            "epochs", "split_fraction", "reg", "delta", "seeds", "out_dir")
DATASET_KEYS = ("name", "synthetic", "n", "examples", "path", "label_threshold",
                "n_features", "seed")
ALGO_KEYS = ("name", "alpha", "beta", "model", "l", "allow_unsafe_beta")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 0, 1, 2, 0.5,
                       -0.5, 0.7, 1.0, "noisy", "gaussian", "des", "x.svm"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(ALGO_KEYS + DATASET_KEYS), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def one_key_replaced(draw):
    raw = json.loads(json.dumps(VALID_SPEC))
    entry = draw(st.sampled_from(["top", "dataset", "algorithm"]))
    if entry == "top":
        node, key = raw, draw(st.sampled_from(TOP_KEYS))
    elif entry == "dataset":
        node, key = draw(st.sampled_from(raw["datasets"])), draw(st.sampled_from(DATASET_KEYS))
    else:
        node, key = draw(st.sampled_from(raw["algorithms"])), draw(st.sampled_from(ALGO_KEYS))
    node[key] = draw(json_values)
    return raw


def finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def count(x, minimum=1) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= minimum


def test_build_spec_returns_finite_in_range_spec_or_raises():
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(one_key_replaced())
    def check(raw):
        try:
            spec = _build_spec(raw)
        except ValueError as exc:
            seen["non-finite rejected"] += "finite number" in str(exc)
            seen["misplaced rejected"] += "(a " in str(exc)
            return
        seen["built"] += 1
        assert count(spec.workers) and count(spec.batch_size)
        assert all(x is None or count(x) for x in (spec.local_iters, spec.epochs))
        assert finite(spec.split_fraction) and 0.0 < spec.split_fraction < 1.0
        assert finite(spec.reg) and spec.reg >= 0.0
        assert finite(spec.delta) and 0.0 < spec.delta < 1.0
        assert spec.seeds and all(count(s, -math.inf) for s in spec.seeds)
        assert len(set(spec.seeds)) == len(spec.seeds)
        assert spec.losses and all(isinstance(loss, LossKind) for loss in spec.losses)
        for ds in spec.datasets:
            assert count(ds.seed, -math.inf)
            if ds.synthetic is not None:
                assert count(ds.n) and count(ds.examples, 2)
                assert ds.path is ds.label_threshold is ds.n_features is None
            else:
                assert isinstance(ds.path, str) and ds.n is ds.examples is None
                assert ds.label_threshold is None or finite(ds.label_threshold)
                assert ds.n_features is None or count(ds.n_features)
        for algo in spec.algorithms:
            assert algo.alphas and all(finite(a) and a > 0.0 for a in algo.alphas)
            assert finite(algo.beta) and 0.0 <= algo.beta < 1.0
            assert algo.beta < BETA_LIMIT or algo.allow_unsafe_beta
            assert count(algo.mixture_size)
            if algo.name != "des":
                defaults = AlgoSpec(algo.name)
                assert (algo.beta, algo.model, algo.mixture_size, algo.allow_unsafe_beta) == \
                       (defaults.beta, defaults.model, defaults.mixture_size,
                        defaults.allow_unsafe_beta)

    assert _build_spec(json.loads(json.dumps(VALID_SPEC))).algorithms[0].mixture_size == 3
    check()
    assert min(seen[k] for k in ("built", "non-finite rejected", "misplaced rejected")) > 0, seen


def test_load_spec_field_validation(tmp_path):
    base = {
        "datasets": [{"name": "d", "synthetic": "noisy", "n": 4, "examples": 10}],
        "algorithms": [{"name": "des"}],
    }
    cases = [
        ({"algorithms": [{"name": "des", "beta": 1.5}]}, "beta"),
        ({"algorithms": [{"name": "des", "beta": 0.7}]}, "beta"),  # above stability limit
        ({"algorithms": [{"name": "sgd"}]}, "name"),
        ({"algorithms": [{"name": "des", "model": "cauchy"}]}, "model"),
        ({"algorithms": [{"name": "des", "alpha": [-1.0]}]}, "alpha"),
        ({"delta": 1.2}, "delta"),
        ({"split_fraction": 1.0}, "split_fraction"),
        ({"seeds": [1, 1]}, "seeds"),
        ({"losses": ["LR", "HUBER"]}, "HUBER"),
        ({"datasets": [{"name": "d"}]}, "synthetic/path"),
        ({"datasets": [{"name": "d", "synthetic": "noisy", "n": 4, "examples": 10,
                        "path": "x"}]}, "synthetic/path"),
        ({"datasets": [{"name": "d", "synthetic": "wavy", "n": 4, "examples": 10}]}, "synthetic"),
        ({"seeds": 3}, "seeds"),
        ({"algorithms": [{"name": "des", "alpha": ["fast"]}]}, "alpha"),
        ({"datasets": [5]}, "datasets"),
        ({"workers": 2.7}, "workers"),
        ({"algorithms": [{"name": "des", "l": 2.5}]}, r"\.l'"),
        # non-finite numbers, which Python's json reads from NaN and Infinity
        ({"algorithms": [{"name": "des", "alpha": [float("inf")]}]}, "alpha"),
        ({"algorithms": [{"name": "des", "beta": float("nan")}]}, "beta"),
        ({"reg": float("inf")}, "reg"),
        ({"delta": float("nan")}, "delta"),
        ({"split_fraction": float("nan")}, "split_fraction"),
        ({"datasets": [{"name": "d", "path": "x.svm", "label_threshold": float("nan")}]},
         "label_threshold"),
        ({"reg": 10**400}, "reg"),
        # two cells that would write their rows under one (algo, instance, seed) key
        ({"algorithms": [{"name": "des", "alpha": [1.0], "beta": 0.5},
                         {"name": "des", "alpha": [1.0], "beta": 0.3}]},
         r"algorithms\[0\] alpha 1\.0 and algorithms\[1\] alpha 1\.0 share .* 'des'"),
        ({"datasets": [{"name": "d", "synthetic": "noisy", "n": 4, "examples": 10},
                       {"name": "d", "synthetic": "separable", "n": 4, "examples": 10}]},
         r"datasets\[0\] and datasets\[1\] share .* 'd'"),
        ({"losses": ["LR", "LR"]}, r"losses\[0\] and losses\[1\] share .* 'LR'"),
        ({"algorithms": [{"name": "des", "alpha": [1.0, 1.0000001]}]},
         r"alpha 1\.0 and algorithms\[0\] alpha 1\.0000001 share .* 'des@a=1'"),
    ]
    for override, needle in cases:
        raw = dict(base, **override)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=needle):
            load_spec(path)


def test_unsafe_beta_needs_flag(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "datasets": [{"name": "d", "synthetic": "noisy", "n": 4, "examples": 10}],
        "algorithms": [{"name": "des", "beta": 0.8, "allow_unsafe_beta": True}],
    }), encoding="utf-8")
    spec = load_spec(path)
    assert spec.algorithms[0].beta == 0.8
    assert spec.algorithms[0].allow_unsafe_beta


def test_apply_overrides():
    raw = {"workers": 2, "algorithms": [{"name": "des", "beta": 0.5}]}
    out = _apply_overrides(raw, ["workers=4", "algorithms.0.beta=0.25", "out_dir=there"])
    assert out["workers"] == 4
    assert out["algorithms"][0]["beta"] == 0.25
    assert out["out_dir"] == "there"  # non-JSON text stays a string
    with pytest.raises(ValueError, match="KEY=VALUE"):
        _apply_overrides(raw, ["workers"])
    with pytest.raises(ValueError, match="does not fit"):
        _apply_overrides(raw, ["algorithms.9.beta=0.1"])


def test_dimension_rule():
    auto = ExperimentSpec(datasets=(), losses=(), algorithms=())
    assert _dimension_rule(100, auto) == (100, 1000)
    assert _dimension_rule(101, auto) == (500, 5000)
    pinned = ExperimentSpec(datasets=(), losses=(), algorithms=(), local_iters=7, epochs=3)
    assert _dimension_rule(100, pinned) == (7, 3)
    assert _dimension_rule(10_000, pinned) == (7, 3)


def test_run_matrix_end_to_end(tmp_path, capsys):
    # 80 examples -> 64 train; per round 2*2*4 = 16 evals; 1 epoch -> 4 rounds.
    spec_path = write_spec(tmp_path / "spec.json")
    code = main(["run", str(spec_path), "--out", str(tmp_path / "runs"), "--threads", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "metrics.csv" in out and "profiles.csv" in out

    records = read_metrics_csv(tmp_path / "runs" / "metrics.csv")
    assert len(records) == 4  # 2 algorithms x 2 seeds, single alpha: no @a= suffix
    assert {r.algorithm for r in records} == {"des", "fed-zo-gd"}
    assert {r.instance for r in records} == {"tiny/LR"}
    for rec in records:
        assert [row.round for row in rec.rows] == [0, 1, 2, 3, 4]
        assert [row.cum_evals for row in rec.rows] == [0, 16, 32, 48, 64]
        assert rec.rows[0].train_loss == np.log(2.0)
        assert all(row.wall_ms == 0.0 for row in rec.rows)
    assert (tmp_path / "runs" / "profiles.csv").read_text(encoding="utf-8").startswith("algo,tau,rho")


def test_run_matrix_byte_identical_reruns_and_threads(tmp_path):
    spec_path = write_spec(tmp_path / "spec.json")
    blobs = {}
    for tag, threads in [("a", "1"), ("b", "1"), ("c", "4")]:
        out_dir = tmp_path / tag
        assert main(["run", str(spec_path), "--out", str(out_dir), "--threads", threads]) == 0
        blobs[tag] = (
            (out_dir / "metrics.csv").read_bytes(),
            (out_dir / "profiles.csv").read_bytes(),
        )
    assert blobs["a"] == blobs["b"] == blobs["c"]


def test_run_matrix_starts_no_thread(tmp_path, monkeypatch):
    # Every algorithm simulates its workers in the calling thread; --threads
    # runs cells in forked processes, which start no thread either.
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    names = ("des", "fed-zo-gd", "fed-zo-sgd", "zo-signsgd", "es-csa")
    # 2*2*32 = 128 evaluations per round over 64 training rows: es-csa population 2
    spec_path = write_spec(tmp_path / "spec.json", batch_size=32, epochs=4, seeds=[0],
                           algorithms=[{"name": name, "alpha": [1.0]} for name in names])
    assert main(["run", str(spec_path), "--out", str(tmp_path / "runs"), "--threads", "4"]) == 0
    records = read_metrics_csv(tmp_path / "runs" / "metrics.csv")
    assert sorted(r.algorithm for r in records) == sorted(names)
    assert all(len(r.rows) == 3 for r in records)


def test_run_matrix_alpha_grid_suffix(tmp_path):
    spec_path = write_spec(tmp_path / "spec.json",
                           algorithms=[{"name": "des", "alpha": [0.5, 1.0], "beta": 0.0}],
                           seeds=[0])
    assert main(["run", str(spec_path), "--out", str(tmp_path / "runs"), "--threads", "1"]) == 0
    records = read_metrics_csv(tmp_path / "runs" / "metrics.csv")
    assert {r.algorithm for r in records} == {"des@a=0.5", "des@a=1"}


def test_run_matrix_zero_round_warning(tmp_path):
    spec_path = write_spec(tmp_path / "spec.json", local_iters=50)  # 400 evals > 64 train
    with pytest.warns(UserWarning, match="round-0"):
        code = main(["run", str(spec_path), "--out", str(tmp_path / "runs"), "--threads", "1"])
    assert code == 0
    records = read_metrics_csv(tmp_path / "runs" / "metrics.csv")
    assert all(len(rec.rows) == 1 for rec in records)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let --threads 2 fork a worker process even on a one-CPU machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def failed_run(spec_path, out_dir, threads, *extra):
    """Exit code, FAILED lines and metrics.csv bytes of a run that may fail cells."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", str(spec_path), "--out", str(out_dir), "--threads", threads, *extra])
    failed = [line for line in err.getvalue().splitlines() if line.startswith("FAILED")]
    return code, failed, (out_dir / "metrics.csv").read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_matrix_cell_failure_exits_2(tmp_path, threads, two_cpus):
    # es-csa needs population >= 2 but the budget allows 16/64 < 0.5: that
    # cell fails while the DES cells complete.
    spec_path = write_spec(tmp_path / "spec.json",
                           algorithms=[{"name": "des", "alpha": [1.0], "beta": 0.0},
                                       {"name": "es-csa", "alpha": [1.0]}])
    code, failed, blob = failed_run(spec_path, tmp_path / "runs", threads)
    assert code == 2
    assert [line.split(":")[0] for line in failed] == [
        "FAILED es-csa alpha=1 on tiny/LR seed 0", "FAILED es-csa alpha=1 on tiny/LR seed 1"]
    records = read_metrics_csv(tmp_path / "runs" / "metrics.csv")
    assert {r.algorithm for r in records} == {"des"}
    assert (code, failed, blob) == failed_run(spec_path, tmp_path / "serial", "1")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_matrix_diverged_zo_cell_exits_2(tmp_path, threads, two_cpus):
    # A step of 1e300 overflows the iterate at round 1's first local step.
    # local_iters=4 gives fed-zo-sgd K' = 2 local steps, so the second one
    # estimates at the overflowed point, and its NaN gradient estimate fails
    # the cell before the round-1 snapshot could. Two seeds, so that under
    # --threads 2 one cell fails in a worker process.
    spec_path = write_spec(tmp_path / "spec.json",
                           algorithms=[{"name": "fed-zo-sgd", "alpha": [1e300]}])
    with np.errstate(all="ignore"):
        code, failed, blob = failed_run(spec_path, tmp_path / "runs", threads,
                                        "--set", "local_iters=4")
        serial = failed_run(spec_path, tmp_path / "serial", "1", "--set", "local_iters=4")
    assert code == 2
    assert failed == [f"FAILED fed-zo-sgd alpha=1e+300 on tiny/LR seed {seed}: "
                      "zeroth-order gradient estimate is NaN" for seed in (0, 1)]
    assert read_metrics_csv(tmp_path / "runs" / "metrics.csv") == []
    assert (code, failed, blob) == serial


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_matrix_non_finite_snapshot_exits_2(tmp_path, threads, two_cpus):
    # With 16-row minibatches the one round ends on an overflowed iterate
    # before any estimate is NaN; its snapshot fails the cell instead of
    # writing an inf train loss.
    spec_path = write_spec(tmp_path / "spec.json",
                           algorithms=[{"name": "fed-zo-sgd", "alpha": [1e300]}])
    with np.errstate(all="ignore"):
        code, failed, blob = failed_run(spec_path, tmp_path / "runs", threads,
                                        "--set", "batch_size=16")
        serial = failed_run(spec_path, tmp_path / "serial", "1", "--set", "batch_size=16")
    assert code == 2
    assert [line.split(":")[0] for line in failed] == [
        f"FAILED fed-zo-sgd alpha=1e+300 on tiny/LR seed {seed}" for seed in (0, 1)]
    assert all("train loss after round 1 is inf" in line for line in failed)
    assert read_metrics_csv(tmp_path / "runs" / "metrics.csv") == []
    assert (code, failed, blob) == serial


def test_run_matrix_dead_worker_fails_its_cells(tmp_path, monkeypatch, two_cpus):
    # The worker process dies without reporting: each cell of its share
    # (cells 1 and 3 of four) fails, the calling process's cells are written.
    parent, run_cell = os.getpid(), cli._run_cell

    def die_in_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return run_cell(*args)

    monkeypatch.setattr(cli, "_run_cell", die_in_child)
    spec_path = write_spec(tmp_path / "spec.json")
    code, failed, _ = failed_run(spec_path, tmp_path / "runs", "2")
    assert code == 2
    assert failed == [f"FAILED {name} alpha=1 on tiny/LR seed 1: worker process 1 exited "
                      "with code 1 before reporting its cells" for name in ("des", "fed-zo-gd")]
    records = read_metrics_csv(tmp_path / "runs" / "metrics.csv")
    assert sorted((r.algorithm, r.seed) for r in records) == [("des", 0), ("fed-zo-gd", 0)]
    assert multiprocessing.active_children() == []


def test_unforked_worker_leaves_its_cells_to_the_caller(tmp_path, monkeypatch, two_cpus,
                                                        capsys):
    # A worker process that cannot be forked (EAGAIN under a pid limit, say)
    # fails nothing: the calling process runs its share, and its des cells
    # prepare their rounds without a helper. parse-check parses every range
    # in the calling process. Each exits 0 with its one-process output.
    spec_path = write_spec(tmp_path / "spec.json", algorithms=[
        {"name": "des", "alpha": [1.0], "model": "mixture_rademacher", "l": 2},
        {"name": "fed-zo-gd", "alpha": [1.0]}])
    data = tmp_path / "data.svm"
    data.write_text("".join(f"{(-1) ** i:+d} {i % 7 + 1}:{i}.5\n" for i in range(300)))
    monkeypatch.setattr(dataio, "PARSE_CHUNK", 64)
    outputs = []
    for refuse in (False, True):
        refused = refuse_forks(monkeypatch) if refuse else []
        out_dir = tmp_path / f"refused-{refuse}"
        assert main(["run", str(spec_path), "--out", str(out_dir), "--threads", "2"]) == 0
        assert main(["parse-check", str(data)]) == 0
        outputs.append(((out_dir / "metrics.csv").read_bytes(), capsys.readouterr().out
                        .replace(str(out_dir), "OUT")))
        # refused: the worker, a helper for each des cell, the parse's child
        assert len(refused) == (4 if refuse else 0)
    assert outputs[0] == outputs[1]
    assert len(read_metrics_csv(tmp_path / "refused-True" / "metrics.csv")) == 4
    assert multiprocessing.active_children() == []


def test_run_matrix_leaves_no_worker_on_raise(tmp_path, monkeypatch, two_cpus):
    # An exception that escapes the calling process's share still ends the
    # worker process, which would otherwise sleep on.
    class Stop(BaseException):
        pass

    parent = os.getpid()

    def stop_or_sleep(*args):
        if os.getpid() == parent:
            raise Stop
        time.sleep(30)

    monkeypatch.setattr(cli, "_run_cell", stop_or_sleep)
    spec_path = write_spec(tmp_path / "spec.json")
    start = time.monotonic()
    with pytest.raises(Stop):
        main(["run", str(spec_path), "--out", str(tmp_path / "runs"), "--threads", "2"])
    assert time.monotonic() - start < 20
    assert multiprocessing.active_children() == []


def test_run_matrix_relays_worker_warnings(tmp_path, two_cpus):
    # Cell 1 (fed-zo-gd, odd local_iters) runs in the worker process under
    # --threads 2; its warning is reissued in the calling process.
    spec_path = write_spec(tmp_path / "spec.json", seeds=[0], local_iters=3)
    with pytest.warns(UserWarning, match="odd local_iters") as caught:
        code = main(["run", str(spec_path), "--out", str(tmp_path / "runs"), "--threads", "2"])
    assert code == 0
    assert [str(w.message) for w in caught] == [
        "odd local_iters=3: forfeiting 4 evaluations per worker per round to keep estimates paired"]


def test_run_matrix_caps_worker_processes(tmp_path, monkeypatch):
    # Three cells on 64 CPUs: --threads 1000000 starts two worker processes.
    # The caller's own des cell also forks run_des's round-prep helper, which
    # is not counted.
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(process):
        if process._target.__module__ == "desopt.cli":
            started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    spec_path = write_spec(tmp_path / "spec.json", seeds=[0, 1, 2],
                           algorithms=[{"name": "des", "alpha": [1.0], "beta": 0.0}])
    assert main(["run", str(spec_path), "--out", str(tmp_path / "runs"),
                 "--threads", "1000000"]) == 0
    assert len(started) == 2
    assert len(read_metrics_csv(tmp_path / "runs" / "metrics.csv")) == 3
    assert multiprocessing.active_children() == []


def test_run_spec_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 1
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad_json)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"datasets": [], "algorithms": [], "turbo": True}), encoding="utf-8")
    assert main(["run", str(unknown)]) == 1
    spec_path = write_spec(tmp_path / "ok.json")
    assert main(["run", str(spec_path), "--set", "seeds=[0,0]",
                 "--out", str(tmp_path / "r")]) == 1
    assert main(["run", str(spec_path), "--set", "seeds=3",
                 "--out", str(tmp_path / "r")]) == 1
    assert "error:" in capsys.readouterr().err
    for threads in ("0", "-3"):
        assert main(["run", str(spec_path), "--threads", threads,
                     "--out", str(tmp_path / "r")]) == 1
        assert "--threads" in capsys.readouterr().err
    # usage errors: argparse's own exit code would be 2, a runtime failure
    for argv in (["run", str(spec_path), "--bogus", "1"], ["run"], [], ["frobnicate"],
                 ["run", str(spec_path), "--threads", "two"]):
        assert main(argv) == 1, argv
        assert "usage:" in capsys.readouterr().err
    for argv in (["--help"], ["run", "--help"]):
        assert main(argv) == 0, argv
        assert "usage:" in capsys.readouterr().out
    for override in ("reg=Infinity", "algorithms.0.alpha=[NaN]", "delta=-Infinity"):
        assert main(["run", str(spec_path), "--set", override,
                     "--out", str(tmp_path / "r")]) == 1, override
        assert "finite number" in capsys.readouterr().err
    # a dataset that fails to load is an input error; the other datasets' cells still run
    bad = tmp_path / "bad.svm"
    bad.write_text("+1 1:1\n-1 0:2\n", encoding="utf-8")
    inputs = write_spec(tmp_path / "inputs.json", datasets=[
        {"name": "missing", "path": str(tmp_path / "missing.svm")},
        {"name": "bad", "path": str(bad)},
        {"name": "tiny", "synthetic": "separable", "n": 6, "examples": 80, "seed": 3},
    ])
    assert main(["run", str(inputs), "--out", str(tmp_path / "inputs")]) == 1
    err = capsys.readouterr().err
    assert "FAILED dataset missing" in err and "FAILED dataset bad: line 2" in err
    records = read_metrics_csv(tmp_path / "inputs" / "metrics.csv")
    assert {r.instance for r in records} == {"tiny/LR"} and len(records) == 4


def test_run_spec_that_does_not_fit_the_file_exits_1(tmp_path, capsys):
    # a top level that is not an object, with or without --set and --out,
    # and a --set path through a number or a string are spec errors, not
    # runtime failures
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]", encoding="utf-8")
    for extra in ([], ["--out", str(tmp_path / "r")], ["--set", "workers=2"]):
        assert main(["run", str(not_object), *extra]) == 1, extra
        assert "error: field 'experiment spec': expected an object" in capsys.readouterr().err
    spec_path = write_spec(tmp_path / "ok.json")
    for override in ("workers.x.y=1", "workers.x=1", "seeds.0.x=1", "algorithms.0.name.x=1"):
        assert main(["run", str(spec_path), "--set", override,
                     "--out", str(tmp_path / "r")]) == 1, override
        path = override.partition("=")[0]
        assert f"error: --set path {path!r} does not fit" in capsys.readouterr().err


def test_profile_command(tmp_path, capsys):
    spec_path = write_spec(tmp_path / "spec.json")
    assert main(["run", str(spec_path), "--out", str(tmp_path / "runs"), "--threads", "1"]) == 0
    metrics = tmp_path / "runs" / "metrics.csv"
    out = tmp_path / "profiles2.csv"
    assert main(["profile", str(metrics), "--delta", "0.1", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("algo,tau,rho")
    assert "rho(1)" in capsys.readouterr().out
    assert main(["profile", str(metrics), "--delta", "1.5"]) == 1
    assert main(["profile", str(tmp_path / "missing.csv"), "--delta", "0.1"]) == 1


def test_parse_check_command(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("+1 1:0.5 3:1\n-1 2:2\n", encoding="utf-8")
    assert main(["parse-check", str(good)]) == 0
    assert "2 examples" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text("+1 0:5\n", encoding="utf-8")
    assert main(["parse-check", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err
    assert main(["parse-check", str(tmp_path / "missing.txt")]) == 1
    multi = tmp_path / "multi.txt"
    multi.write_text("1 1:1\n2 1:1\n", encoding="utf-8")
    assert main(["parse-check", str(multi)]) == 1  # labels need a threshold
    assert main(["parse-check", str(multi), "--label-threshold", "1.5"]) == 0
    capsys.readouterr()
    nan_label = tmp_path / "nan-label.txt"
    nan_label.write_text("1 1:1\n2 1:1\nnan 1:2\n", encoding="utf-8")
    assert main(["parse-check", str(nan_label), "--label-threshold", "1.5"]) == 1
    assert "line 3: non-finite label" in capsys.readouterr().err
    for threshold in ("nan", "inf", "-inf"):
        assert main(["parse-check", str(multi), f"--label-threshold={threshold}"]) == 1
        assert "label_threshold must be finite" in capsys.readouterr().err


def test_parse_check_truncated_gzip_exits_1(tmp_path, capsys):
    truncated = tmp_path / "truncated.svm.gz"
    truncated.write_bytes(gzip.compress(b"+1 1:0.5\n" * 100)[:-12])
    assert main(["parse-check", str(truncated)]) == 1
    assert "Compressed file ended before the end-of-stream marker" in capsys.readouterr().err


def test_parse_check_corrupt_gzip_exits_1(tmp_path, capsys):
    # its deflate data is damaged, not cut short: zlib's error is an input error too
    raw = bytearray(gzip.compress(b"+1 1:0.5\n" * 1000))
    raw[30:40] = b"\xff" * 10
    corrupt = tmp_path / "corrupt.svm.gz"
    corrupt.write_bytes(raw)
    assert main(["parse-check", str(corrupt)]) == 1
    assert "error: line 1: Error -3 while decompressing data" in capsys.readouterr().err


def test_run_matrix_multiple_losses_and_instances(tmp_path):
    spec_path = write_spec(tmp_path / "spec.json", losses=["LR", "LSVM"], seeds=[0])
    assert main(["run", str(spec_path), "--out", str(tmp_path / "runs"), "--threads", "1"]) == 0
    records = read_metrics_csv(tmp_path / "runs" / "metrics.csv")
    assert {r.instance for r in records} == {"tiny/LR", "tiny/LSVM"}
    assert len(records) == 4  # 2 losses x 2 algorithms x 1 seed
