"""The three benchmark workloads, each a closed loop of one caller.

Every workload has a set-up step (load or synthesize the data and split it),
an operation (one optimisation call, timed as run_s) and the checks applied
to that operation's output. Calls go through module attributes such as
``server.run_des`` so that a traced phase sees them.

- des-sparse-mixture: the paper's O(l) mixture mutations on skewed sparse
  LIBSVM data at the CLI-default thread count; full-minibatch matvecs in
  objective dominate, and parse_libsvm dominates set-up.
- des-dense-small: dense Gaussian mutations, n=100, one thread; bound by
  per-call overhead, and bypassed by mixture-only optimisations.
- cli-matrix: `desopt run` over five algorithms and two losses; the only
  workload that runs the baselines, loss_sum_many, bench and cli.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import desopt.cli as cli
import desopt.dataio as dataio
import desopt.server as server
from desopt import (
    DesConfig,
    LossKind,
    MetricRow,
    MutationKind,
    MutationModel,
    RngStream,
    SplitSpec,
    SynthKind,
)

import gen
from measure import rows_digest

TRAIN_FRACTION = 0.8


@dataclass
class Op:
    """What one operation produced: its wall time, the evaluations it spent,
    per-round wall times, the output digest and any failed checks."""

    wall_s: float
    evals: int = 0
    round_ms: list[float] = dataclasses.field(default_factory=list)
    digest: str | None = None
    problems: list[str] = dataclasses.field(default_factory=list)


@dataclass
class Data:
    train: object
    test: object
    source_bytes: int = 0


def _split(full, seed: int):
    return dataio.split_train_test(full, SplitSpec(TRAIN_FRACTION, RngStream(seed, "split")))


def _check_losses(losses, first_must_exceed_last: bool) -> list[str]:
    problems = []
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite train loss")
    elif first_must_exceed_last and not losses[-1] < losses[0]:
        problems.append(f"final train loss {losses[-1]!r} is not below round 0 ({losses[0]!r})")
    return problems


class DesWorkload:
    """run_des on one dataset; subclasses say how the dataset is set up."""

    name = ""
    root = "server.run_des"
    all_cpus = False
    rounds = 0
    local_iters = 100
    batch_size = 0
    alpha = 0.0
    kind = MutationKind.STANDARD_GAUSSIAN

    def __init__(self, seed: int, inputs: Path, nproc: int, out: Path):
        self.seed = seed
        self.inputs = inputs
        self.threads = nproc if self.all_cpus else 1
        self.other_threads = nproc if self.threads == 1 else 1

    def config(self, train, rounds: int) -> DesConfig:
        return DesConfig(
            workers=10, rounds=rounds, local_iters=self.local_iters,
            batch_size=self.batch_size, alpha=self.alpha,
            model=MutationModel(self.kind, train.n_features, l=8), seed=self.seed, beta=0.5,
        )

    def warmup(self, data: Data, threads: int) -> None:
        server.run_des(self.config(data.train, 1), data.train, data.test, LossKind.LR,
                       threads=threads, timing=True)

    def op(self, data: Data, threads: int) -> Op:
        cfg = self.config(data.train, self.rounds)
        start = time.perf_counter()
        try:
            record = server.run_des(cfg, data.train, data.test, LossKind.LR, threads=threads,
                                    timing=True, instance=self.name)
        except Exception as exc:  # a raising run is a failed operation, not a crash
            return Op(time.perf_counter() - start, problems=[f"run_des raised {exc!r}"])
        wall = time.perf_counter() - start
        rows = record.rows
        problems = _check_losses([r.train_loss for r in rows], first_must_exceed_last=True)
        if len(rows) != self.rounds + 1:
            problems.append(f"{len(rows)} metric rows, expected {self.rounds + 1}")
        header = [f.name for f in dataclasses.fields(MetricRow)]
        return Op(
            wall_s=wall,
            evals=rows[-1].cum_evals,
            round_ms=[r.wall_ms for r in rows[1:]],
            digest=rows_digest(header, [dataclasses.astuple(r) for r in rows]),
            problems=problems,
        )

    def probe_params(self) -> tuple[int, int, float]:
        """Batch size, local iterations and step for the mixture-vs-dense probe."""
        return self.batch_size, self.local_iters, self.alpha


class SparseMixture(DesWorkload):
    name = "des-sparse-mixture"
    all_cpus = True
    rounds = 8
    batch_size = 1000
    alpha = 0.1
    kind = MutationKind.MIXTURE_GAUSSIAN

    def setup(self) -> Data:
        path = self.inputs / gen.SPARSE_FILE
        full = dataio.parse_libsvm(path, n_features=gen.SPARSE_FEATURES)
        train, test = _split(full, self.seed)
        return Data(train, test, source_bytes=path.stat().st_size)


class DenseSmall(DesWorkload):
    name = "des-dense-small"
    rounds = 40
    batch_size = 100
    alpha = 1.0
    kind = MutationKind.STANDARD_GAUSSIAN

    def setup(self) -> Data:
        full = dataio.synth_dataset(SynthKind.SEPARABLE_LINEAR, 100, 20_000,
                                    RngStream(self.seed, "synth"))
        return Data(*_split(full, self.seed))


class CliMatrix:
    """`desopt run` on the generated spec, through cli.main, with --timing."""

    name = "cli-matrix"
    root = "cli.main"

    def __init__(self, seed: int, inputs: Path, nproc: int, out: Path):
        self.seed = seed
        self.spec_path = inputs / gen.CLI_SPEC_FILE
        self.spec = json.loads(self.spec_path.read_text(encoding="utf-8"))
        self.threads = nproc
        self.other_threads = 1
        self.out = out
        ds = self.spec["datasets"][0]
        self.synth = (SynthKind(ds["synthetic"]), ds["n"], ds["examples"], ds["seed"])

    def setup(self) -> Data:
        kind, n, examples, seed = self.synth
        full = dataio.synth_dataset(kind, n, examples, RngStream(seed, "synth"))
        return Data(*_split(full, seed))

    def expected_rows(self) -> int:
        """Sum over cells of rounds+1, derived from the spec independently of the CLI."""
        spec = self.spec
        n_train = round(TRAIN_FRACTION * spec["datasets"][0]["examples"])
        per_round = spec["workers"] * spec["local_iters"] * spec["batch_size"]
        rounds = spec["epochs"] * n_train // per_round
        cells = len(spec["losses"]) * len(spec["seeds"]) * sum(
            len(a["alpha"]) for a in spec["algorithms"])
        return cells * (rounds + 1)

    def _main(self, threads: int, extra=()) -> tuple[int, str]:
        argv = ["run", str(self.spec_path), "--out", str(self.out), "--timing",
                "--threads", str(threads), *extra]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def warmup(self, data: Data, threads: int) -> None:
        self._main(threads, ["--set", "epochs=5"])

    def op(self, data: Data, threads: int) -> Op:
        shutil.rmtree(self.out, ignore_errors=True)
        start = time.perf_counter()
        try:
            code, err = self._main(threads)
        except Exception as exc:  # cli.main maps errors to exit codes; anything else fails the op
            return Op(time.perf_counter() - start, problems=[f"cli.main raised {exc!r}"])
        wall = time.perf_counter() - start
        if code != 0:
            return Op(wall, problems=[f"desopt run exited {code}: {err.strip()[:500]}"])
        with open(self.out / "metrics.csv", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        col = {name: i for i, name in enumerate(header)}
        problems = []
        if len(rows) != self.expected_rows():
            problems.append(f"metrics.csv has {len(rows)} rows, expected {self.expected_rows()}")
        problems += _check_losses([float(r[col["train_loss"]]) for r in rows],
                                  first_must_exceed_last=False)
        if not (self.out / "profiles.csv").is_file():
            problems.append("profiles.csv missing")
        final_evals = {}
        for r in rows:
            final_evals[(r[col["algo"]], r[col["instance"]], r[col["seed"]])] = int(r[col["cum_evals"]])
        return Op(
            wall_s=wall,
            evals=sum(final_evals.values()),
            round_ms=[float(r[col["wall_ms"]]) for r in rows if r[col["round"]] != "0"],
            digest=rows_digest(header, rows),
            problems=problems,
        )

    def probe_params(self) -> tuple[int, int, float]:
        """Batch size, local iterations and step for the mixture-vs-dense probe."""
        return self.spec["batch_size"], self.spec["local_iters"], 1.0


WORKLOADS = {"des-sparse-mixture": SparseMixture, "des-dense-small": DenseSmall,
             "cli-matrix": CliMatrix}
