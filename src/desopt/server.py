"""Synchronous distributed-ES orchestration: broadcast the incumbent, run the
workers' local solvers in lockstep for one round, average the returned points,
and advance the incumbent through a momentum-damped delayed step. Also home to the
config checks that DES and the baselines share and to their one round driver,
run_rounds: each algorithm is a generator of rounds, which run_rounds starts at
the zero point and pulls one round at a time. Every algorithm simulates its M
workers in the calling thread; none starts a thread. run_des forks one helper
process that prepares mixture rounds ahead of the caller where two CPUs allow.
"""
from __future__ import annotations

import itertools
import math
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .bench import MetricRow, RunRecord
from .dataio import PartitionPlan, partition_uniform
from .localsolver import (
    LocalConfig,
    NonFiniteObjectiveError,
    mixture_draws,
    run_lockstep_es,
    step_size,
)
from .localsolver import run_local_es  # noqa: F401  benchmarks/tracing.py wraps it by this name
from .mutation import MutationKind, MutationModel, RngStream
from .objective import (
    Dataset,
    LossKind,
    PlanBlock,
    RegularizedObjective,
    StackedBatch,
    classification_error,
)
from .processes import forked, process_count, recv_arrays, send_arrays

# Momentum must stay below sqrt(1/(2*sqrt(2))) ~ 0.5946 or the delayed step
# can feed back on itself; larger values are for deliberate failure studies.
BETA_LIMIT = math.sqrt(1.0 / (2.0 * math.sqrt(2.0)))


def check_beta(beta: float, allow_unsafe_beta: bool) -> None:
    """Momentum must lie in [0,1), and below BETA_LIMIT unless explicitly allowed."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0,1), got {beta}")
    if beta >= BETA_LIMIT and not allow_unsafe_beta:
        raise ValueError(
            f"beta={beta} is at or above the stability limit {BETA_LIMIT:.6f}; "
            "set allow_unsafe_beta=True to run anyway"
        )


@dataclass(frozen=True)
class RoundConfig:
    """Knobs every round algorithm shares: M workers, T rounds, K local
    iterations per worker on size-b minibatches, the step-size alpha, the root
    seed, and an optional evaluation cap checked before each round."""

    workers: int
    rounds: int
    local_iters: int
    batch_size: int
    alpha: float
    seed: int
    max_evals: int | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.local_iters < 1:
            raise ValueError(f"local_iters must be >= 1, got {self.local_iters}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True, kw_only=True)
class DesConfig(RoundConfig):
    model: MutationModel
    beta: float = 0.5
    allow_unsafe_beta: bool = False

    def __post_init__(self):
        super().__post_init__()
        check_beta(self.beta, self.allow_unsafe_beta)
        if self.batch_size < math.sqrt(self.rounds):
            warnings.warn(
                f"batch_size={self.batch_size} is below sqrt(rounds)={math.sqrt(self.rounds):.2f}; "
                "minibatch noise may dominate late rounds",
                stacklevel=2,
            )


@dataclass
class ServerState:
    x: np.ndarray
    m: np.ndarray
    t: int = 0


def momentum_update(m: np.ndarray, d: np.ndarray, beta: float) -> np.ndarray:
    """Exponential averaging of the descent step: beta*m + (1-beta)*d."""
    if m.shape != d.shape:
        raise ValueError(f"shape mismatch: m {m.shape} vs d {d.shape}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0,1), got {beta}")
    return beta * m + (1.0 - beta) * d


def average_displacement(x: np.ndarray, v_finals: np.ndarray) -> np.ndarray:
    """Mean worker endpoint (one per row, or a list of arrays) minus the broadcast point."""
    return np.mean(np.asarray(v_finals), axis=0) - x


@dataclass(frozen=True)
class RoundMetrics:
    evals: int
    accepted: tuple[int, ...]
    worker_values: tuple[float, ...]


def prepare_round(cfg: DesConfig, obj: RegularizedObjective, partition: PartitionPlan,
                  t: int) -> tuple[StackedBatch, tuple | None]:
    """The half of DES round t that does not depend on the iterate: a
    StackedBatch over each worker's size-b minibatch, drawn uniformly with
    replacement from its shard, and for a mixture model the round's
    (cols, terms, blocks) as run_lockstep_es takes them: the workers' draws
    from their keyed mutation streams and the batch's plan blocks of cols, a
    generator that makes them as they are needed. None for a dense model."""
    batch = StackedBatch(obj, [partition.minibatch(i, RngStream(cfg.seed, t, i, "batch"),
                                                   cfg.batch_size) for i in range(cfg.workers)])
    if not cfg.model.is_mixture:
        return batch, None
    cols, terms = mixture_draws(cfg.model, [RngStream(cfg.seed, t, i, "mutation").gen
                                            for i in range(cfg.workers)], cfg.local_iters)
    return batch, (cols, terms, batch.blocks(cols))


def des_round(
    state: ServerState,
    cfg: DesConfig,
    obj: RegularizedObjective,
    partition: PartitionPlan,
    trace_factory=None,
    prepared: tuple | None = None,
) -> tuple[ServerState, RoundMetrics]:
    """One synchronous round at t = state.t.

    The round starts from prepared, prepare_round's output for t, made here
    if not given. All M workers then run the local solver in lockstep, in the
    calling thread, from the broadcast point with the round's annealed base
    step, each on its own keyed mutation stream, and the StackedBatch scores
    all M candidates at once. Its start values take the training-set scores
    of the last snapshot if that was at the broadcast point. The server
    averages the endpoints into a displacement and applies the momentum step.
    trace_factory(i), if given, returns worker i's per-iteration trace hook.
    """
    t = state.t
    local_cfg = LocalConfig(iters=cfg.local_iters, model=cfg.model, step0=step_size(cfg.alpha, t, 0))
    batch, planned = prepare_round(cfg, obj, partition, t) if prepared is None else prepared
    V = np.tile(state.x, (cfg.workers, 1))
    scores = obj.kept_scores(state.x)
    streams = None if planned else [RngStream(cfg.seed, t, i, "mutation")
                                    for i in range(cfg.workers)]
    f, accepted = run_lockstep_es(
        V, local_cfg, batch, streams,
        batch.reset(V, None if scores is None else scores[batch.rows]),
        None if trace_factory is None else [trace_factory(i) for i in range(cfg.workers)],
        planned,
    )
    m_next = momentum_update(state.m, average_displacement(state.x, V), cfg.beta)
    new_state = ServerState(x=state.x + m_next, m=m_next, t=t + 1)
    metrics = RoundMetrics(
        evals=cfg.workers * cfg.local_iters * cfg.batch_size,
        accepted=tuple(int(a) for a in accepted),
        worker_values=tuple(float(v) for v in f),
    )
    return new_state, metrics


def _algo_id(kind: MutationKind) -> str:
    return {
        MutationKind.STANDARD_GAUSSIAN: "des",
        MutationKind.MIXTURE_GAUSSIAN: "des-mg",
        MutationKind.MIXTURE_RADEMACHER: "des-mr",
    }[kind]


def run_rounds(
    algorithm: str,
    cfg: RoundConfig,
    train: Dataset,
    test: Dataset,
    loss_kind: LossKind,
    reg: float,
    timing: bool,
    instance: str,
    rounds,
    config_extra: dict,
) -> RunRecord:
    """The round loop every algorithm runs through.

    rounds(obj, partition, x0) is a generator that starts from x0: each next()
    on it runs one round, its M workers simulated in the calling thread, and
    yields (x, evals), the new iterate and the evaluations the round spent. It
    must not write into x0, the zero point that row 0 snapshots before any
    round runs. A round is pulled only while fewer than cfg.rounds have run and
    the evaluation total is below cfg.max_evals; the generator is closed when
    the loop ends, however it ends. An exception raised in the generator
    propagates unchanged, so the cell fails and writes no record; a
    snapshot whose train loss is not finite raises NonFiniteObjectiveError to
    the same effect, so a diverged run writes no row. Wall times are recorded
    only when timing=True; otherwise the column is a deterministic 0 so
    repeated runs serialize byte-identically.
    """
    obj = RegularizedObjective(loss_kind, train, reg)
    partition = partition_uniform(train, cfg.workers, RngStream(cfg.seed, "partition"))
    record = RunRecord(algorithm=algorithm, instance=instance, seed=cfg.seed, config={
        "workers": cfg.workers, "rounds": cfg.rounds, "local_iters": cfg.local_iters,
        "batch_size": cfg.batch_size, "alpha": cfg.alpha, "loss": loss_kind.value,
        "reg": reg, **config_extra,
    })

    x = np.zeros(train.n_features)
    steps = rounds(obj, partition, x)
    done = 0
    cum = 0

    def snapshot(wall_ms: float) -> None:
        train_loss, train_err = obj.eval_full_and_error(x)
        if not math.isfinite(train_loss):
            raise NonFiniteObjectiveError(
                f"train loss after round {done} is {train_loss}, not a finite number (NaN or inf)")
        record.rows.append(MetricRow(
            round=done,
            cum_evals=cum,
            train_loss=train_loss,
            train_err=train_err,
            test_err=classification_error(x, test),
            wall_ms=wall_ms if timing else 0.0,
        ))

    try:
        snapshot(0.0)
        while done < cfg.rounds and (cfg.max_evals is None or cum < cfg.max_evals):
            start = time.perf_counter()
            x, evals = next(steps)
            cum += evals
            done += 1
            snapshot((time.perf_counter() - start) * 1e3)
    finally:
        steps.close()  # releases what the generator holds (a helper process, say) now
    if obj.eval_counter != cum:
        raise RuntimeError(
            f"evaluation ledger drift: instrumented counter {obj.eval_counter} "
            f"vs recorded total {cum}"
        )
    return record.validate()


def run_des(
    cfg: DesConfig,
    train: Dataset,
    test: Dataset,
    loss_kind: LossKind,
    reg: float = 1e-6,
    threads: int | None = None,
    timing: bool = False,
    instance: str = "",
) -> RunRecord:
    """Run cfg.rounds DES rounds from the zero point, one metric row per round.

    The M workers run in lockstep in the calling thread. For a mixture model
    and two rounds or more, a forked helper process prepares rounds 1..
    ahead (prepare_round's half of each round that does not depend on the
    iterate) while the calling process runs the round before, if
    process_count finds a CPU for each: not in a daemonic caller, and not
    on a CPU that a running child of the caller (a `desopt run --threads`
    worker, say) holds. Round 0 is prepared here while the helper starts.
    The outputs do not depend on the helper. threads is accepted for the
    callers that pass it and must be at least 1; it changes nothing.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    helper = cfg.model.is_mixture and cfg.rounds > 1 and process_count(2) == 2

    def rounds(obj, partition, x0):
        state = ServerState(x=x0, m=np.zeros_like(x0))
        children = (forked(1, lambda k, writer: _send_rounds(cfg, obj, partition, writer))
                    if helper else nullcontext([(None, None)]))
        with children as [(_, reader)]:
            prepared = _Ahead(cfg, obj, partition, reader).prepared
            for t in range(cfg.rounds):
                state, metrics = des_round(state, cfg, obj, partition, prepared=prepared(t))
                yield state.x, metrics.evals

    return run_rounds(_algo_id(cfg.model.kind), cfg, train, test, loss_kind, reg, timing,
                      instance, rounds, {"beta": cfg.beta, "model": cfg.model.kind.value,
                                         "mixture_size": cfg.model.l})


def _send_rounds(cfg: DesConfig, obj: RegularizedObjective, partition: PartitionPlan,
                 writer) -> None:
    """The helper's work: prepare rounds 1..T-1 in order and send each as a
    message of its batch rows, cols and terms, then one message per plan
    block. A send stalls while the pipe is full, so the helper runs about a
    round ahead."""
    with writer:
        try:
            for t in range(1, cfg.rounds):
                batch, (cols, terms, blocks) = prepare_round(cfg, obj, partition, t)
                send_arrays(writer, [batch.rows, cols, terms])
                for block in blocks:
                    send_arrays(writer, block)
        except Exception:
            # the caller reads EOF and prepares the rest itself, so a fault
            # that is not the helper's own is raised there, in order
            pass


class _Ahead:
    """The caller's end of the round-prep helper; with reader None there is
    none, and prepared(t) is None: des_round prepares each round itself.
    Otherwise rounds 1.. come off the pipe: a batch (made without a gather,
    since only its rows are needed while the start margins come from the
    snapshot's scores), the draws, and a generator of the plan blocks that
    reads them as the candidates reach them. If the helper has died or
    failed (EOF), the rest of the run, from the first block not received on,
    is prepared here by prepare_round, so the outputs do not depend on the
    helper."""

    def __init__(self, cfg: DesConfig, obj: RegularizedObjective, partition: PartitionPlan,
                 reader):
        self.cfg, self.obj, self.partition, self.reader = cfg, obj, partition, reader

    def prepared(self, t: int) -> tuple | None:
        if t == 0 or self.reader is None:
            return None
        try:
            rows, cols, terms = recv_arrays(self.reader)
        except (EOFError, OSError):
            self.reader = None
            return None
        cfg = self.cfg
        cols, terms = cols.reshape(cfg.local_iters, -1), terms.reshape(cfg.local_iters, -1)
        batch = StackedBatch(self.obj, rows.reshape(cfg.workers, cfg.batch_size))
        return batch, (cols, terms, self._blocks(t))

    def _blocks(self, t: int):
        got = steps = 0
        while steps < self.cfg.local_iters:
            try:
                block = PlanBlock(*recv_arrays(self.reader))
            except (EOFError, OSError):
                self.reader = None
                own = prepare_round(self.cfg, self.obj, self.partition, t)[1][2]
                yield from itertools.islice(own, got, None)
                return
            got += 1
            steps += len(block.bounds) - 1
            yield block
