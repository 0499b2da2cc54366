"""Synchronous distributed-ES orchestration: broadcast the incumbent, run the
workers' local solvers in lockstep for one round, average the returned points,
and advance the incumbent through a momentum-damped delayed step. Also home to the
config checks that DES and the baselines share and to their one round driver,
run_rounds: each algorithm is a generator of rounds, which run_rounds starts at
the zero point and pulls one round at a time. Every algorithm simulates its M
workers in the calling thread; none starts a thread. run_des forks one helper
process that makes every DES round's array lists ahead of the caller where two
CPUs allow; a round's lists are read the same way whether they came over the
helper's pipe or were made in the calling process.
"""
from __future__ import annotations

import itertools
import math
import time
import warnings
from contextlib import nullcontext, suppress
from dataclasses import dataclass

import numpy as np

from .bench import MetricRow, RunRecord
from .dataio import PartitionPlan, partition_uniform
from .localsolver import (
    LocalConfig,
    NonFiniteObjectiveError,
    dense_draws,
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


def _check_dimension(cfg: DesConfig, n_features: int) -> None:
    """The mutation model must draw over the data's own features."""
    if cfg.model.n != n_features:
        raise ValueError(f"mutation model dimension {cfg.model.n} differs from the data's "
                         f"{n_features} features")


def _round_arrays(cfg: DesConfig, obj: RegularizedObjective, partition: PartitionPlan, t: int):
    """The half of DES round t that does not depend on the iterate, as the
    array lists the helper sends, each made as it is needed: a head, then one
    list per block. The only place a round is drawn, from the workers' keyed
    streams: the head holds each worker's size-b minibatch rows (uniform with
    replacement from its shard) and a mixture round's mixture_draws (cols,
    terms); a block is one dense_draws block and its products over the
    rows, or the nine arrays of one PlanBlock of cols."""
    rows = np.array([partition.minibatch(i, RngStream(cfg.seed, t, i, "batch"), cfg.batch_size)
                     for i in range(cfg.workers)], dtype=np.int64)
    gens = [RngStream(cfg.seed, t, i, "mutation").gen for i in range(cfg.workers)]
    batch = StackedBatch(obj, rows)
    if cfg.model.is_mixture:
        cols, terms = mixture_draws(cfg.model, gens, cfg.local_iters)
        yield [rows, cols, terms]
        yield from map(list, batch.blocks(cols))
    else:
        yield [rows]
        for draws in dense_draws(cfg.model, gens, cfg.local_iters, cfg.batch_size):
            yield [draws, batch.products(draws)]


def prepare_round(cfg: DesConfig, obj: RegularizedObjective, partition: PartitionPlan, t: int,
                  arrays=None) -> tuple:
    """Round t as (batch, mutations), read from its array lists (arrays, or
    else _round_arrays' own), flattened by a pipe or not. batch is a
    StackedBatch of the head's rows, made without a gather, and planned with
    the blocks: a mixture round's mutations are its (cols, terms), and its
    blocks plan blocks; a dense round's mutations are its draw blocks, and
    their products plan its candidates. Blocks are read as the candidates
    reach them."""
    lists = iter(_round_arrays(cfg, obj, partition, t) if arrays is None else arrays)
    rows, *draws = next(lists)
    batch = StackedBatch(obj, rows.reshape(cfg.workers, -1))
    if not cfg.model.is_mixture:
        # the solver reads each block's draws just before batch reads its products
        blocks, products = itertools.tee(lists)
        batch.plan_dense(p.reshape(-1, rows.size) for _, p in products)
        return batch, (u.reshape(-1, cfg.workers, cfg.model.n) for u, _ in blocks)
    cols, terms = (d.reshape(cfg.local_iters, -1) for d in draws)
    batch.plan(cols, (PlanBlock(*block) for block in lists))
    return batch, (cols, terms)


def des_round(
    state: ServerState,
    cfg: DesConfig,
    obj: RegularizedObjective,
    partition: PartitionPlan,
    prepared: tuple | None = None,
) -> tuple[ServerState, RoundMetrics]:
    """One synchronous round at t = state.t.

    The round starts from prepared, prepare_round's (batch, mutations) for t,
    made here if not given.
    All M workers then run the local solver on its mutations in lockstep, in
    the calling thread, from the broadcast point with the round's annealed
    base step, and the StackedBatch scores all M candidates at once. Its
    start values take the training-set scores of the last snapshot if that
    was at the broadcast point. The server averages the endpoints into a
    displacement and applies the momentum step. The workers' iterations
    show only through the batch's values and keep calls.
    """
    _check_dimension(cfg, obj.dataset.n_features)
    t = state.t
    local_cfg = LocalConfig(iters=cfg.local_iters, model=cfg.model, step0=step_size(cfg.alpha, t, 0))
    batch, mutations = prepare_round(cfg, obj, partition, t) if prepared is None else prepared
    V = np.tile(state.x, (cfg.workers, 1))
    scores = obj.kept_scores(state.x)
    f, accepted = run_lockstep_es(V, local_cfg, batch, mutations,
                                  batch.reset(V, None if scores is None else scores[batch.rows]))
    m_next = momentum_update(state.m, average_displacement(state.x, V), cfg.beta)
    return ServerState(x=state.x + m_next, m=m_next, t=t + 1), RoundMetrics(
        evals=cfg.workers * cfg.local_iters * cfg.batch_size,
        accepted=tuple(accepted.tolist()), worker_values=tuple(f.tolist()))


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

    The M workers run in lockstep in the calling thread. Every round comes
    from one generator, _prepared_rounds: one producer (_round_arrays) makes
    its array lists, draws and plan included, and one reader (prepare_round)
    reads them. For two rounds or more, dense or mixture, a forked helper
    process makes every round's lists, round 0 included, ahead of the
    calling process, if process_count finds a CPU for each: not in a
    daemonic caller, and not on a CPU that a running child of the caller (a
    `desopt run --threads` worker, say) holds.
    The outputs do not depend on the helper. threads is accepted for the
    callers that pass it and must be at least 1; it changes nothing.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _check_dimension(cfg, train.n_features)
    helper = cfg.rounds > 1 and process_count(2) == 2

    def rounds(obj, partition, x0):
        state = ServerState(x=x0, m=np.zeros_like(x0))
        children = (forked(1, lambda k, writer: _send_rounds(cfg, obj, partition, writer))
                    if helper else nullcontext([(None, None)]))
        with children as [(_, reader)]:
            for prepared in _prepared_rounds(cfg, obj, partition, reader):
                state, metrics = des_round(state, cfg, obj, partition, prepared=prepared)
                yield state.x, metrics.evals

    return run_rounds(_algo_id(cfg.model.kind), cfg, train, test, loss_kind, reg, timing,
                      instance, rounds, {"beta": cfg.beta, "model": cfg.model.kind.value,
                                         "mixture_size": cfg.model.l})


def _send_rounds(cfg: DesConfig, obj: RegularizedObjective, partition: PartitionPlan,
                 writer) -> None:
    """The helper's work: send rounds 0..T-1 in order, each as the array
    lists of _round_arrays, one message a list as it is made, then an empty
    list that ends the round. A send stalls while the pipe is full, so the
    helper runs about a round ahead. On a fault the helper just stops: the
    caller reads EOF and makes the rest itself, so a fault that is not the
    helper's own is raised there, in order."""
    with writer, suppress(Exception):
        for t in range(cfg.rounds):
            for arrays in _round_arrays(cfg, obj, partition, t):
                send_arrays(writer, arrays)
            send_arrays(writer, [])


def _prepared_rounds(cfg: DesConfig, obj: RegularizedObjective, partition: PartitionPlan,
                     reader):
    """prepare_round's output for rounds 0..T-1, in order. While the helper
    lives, each round's lists come off its pipe (reader) as prepare_round
    reads them, up to the empty list that ends the round. With no helper
    (reader None), or once it has died or failed (EOF), _round_arrays makes
    the rest here, from the first list not received on, so the outputs do
    not depend on the helper. Once the caller has run a round, the rest of
    its lists (its end mark) is read before the next round starts; an EOF
    met there ends the round, which is never remade here once its lists
    have all arrived."""

    def received():
        nonlocal reader
        try:
            return None if reader is None else recv_arrays(reader)
        except (EOFError, OSError):
            reader = None

    def lists(t):
        got = 0
        while (arrays := received()) is not None:
            if not arrays:  # the round's end mark
                return
            got += 1
            yield arrays
        if not draining:
            yield from itertools.islice(_round_arrays(cfg, obj, partition, t), got, None)

    for t in range(cfg.rounds):
        draining = False
        arrays = lists(t)
        yield prepare_round(cfg, obj, partition, t, arrays)
        draining = True
        for _ in arrays:
            pass
