"""Synchronous distributed-ES orchestration: broadcast the incumbent, run the
workers' local solvers in lockstep for one round, average the returned points,
and advance the incumbent through a momentum-damped delayed step. Also home to the
round driver and config checks that DES and the baselines share.
"""
from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bench import MetricRow, RunRecord
from .dataio import PartitionPlan, partition_uniform
from .localsolver import CallableBatch, LocalConfig, run_lockstep_es, step_size
from .localsolver import run_local_es  # noqa: F401  benchmarks/tracing.py wraps it by this name
from .mutation import MutationKind, MutationModel, RngStream
from .objective import (BatchView, Dataset, LossKind, RegularizedObjective, StackedBatch,
                        classification_error)

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

    @classmethod
    def initial(cls, n: int) -> "ServerState":
        return cls(x=np.zeros(n), m=np.zeros(n), t=0)


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


def des_round(
    state: ServerState,
    cfg: DesConfig,
    obj_factory,
    partition: PartitionPlan,
    trace_factory=None,
) -> tuple[ServerState, RoundMetrics]:
    """One synchronous round at t = state.t.

    Each worker draws a size-b minibatch uniformly with replacement from its
    shard. All M workers then run the local solver in lockstep, in the
    calling thread, from the broadcast point with the round's annealed base
    step, each on its own keyed mutation stream. Minibatches of one
    RegularizedObjective are evaluated together by a StackedBatch; other
    views (such as stubs) are called one point at a time. The server averages
    the endpoints into a displacement and applies the momentum step.
    trace_factory(i), if given, returns worker i's per-iteration trace hook.
    """
    t = state.t
    local_cfg = LocalConfig(iters=cfg.local_iters, model=cfg.model, step0=step_size(cfg.alpha, t, 0))
    views = [obj_factory(i).batch(partition.minibatch(i, RngStream(cfg.seed, t, i, "batch"),
                                                      cfg.batch_size))
             for i in range(cfg.workers)]
    V = np.tile(state.x, (cfg.workers, 1))
    if all(isinstance(view, BatchView) and view.obj is views[0].obj for view in views):
        batch = StackedBatch(views)
        f_start = batch.reset(V)
    else:
        batch = CallableBatch([view.value for view in views])
        f_start = [view.peek_value(state.x) for view in views]
    f, accepted = run_lockstep_es(
        V, local_cfg, batch, [RngStream(cfg.seed, t, i, "mutation") for i in range(cfg.workers)],
        f_start, None if trace_factory is None else [trace_factory(i) for i in range(cfg.workers)],
    )
    m_next = momentum_update(state.m, average_displacement(state.x, V), cfg.beta)
    new_state = ServerState(x=state.x + m_next, m=m_next, t=t + 1)
    metrics = RoundMetrics(
        evals=cfg.workers * cfg.local_iters * cfg.batch_size,
        accepted=tuple(int(a) for a in accepted),
        worker_values=tuple(float(v) for v in f),
    )
    return new_state, metrics


def _algo_id(model: MutationModel) -> str:
    return {
        MutationKind.STANDARD_GAUSSIAN: "des",
        MutationKind.MIXTURE_GAUSSIAN: "des-mg",
        MutationKind.MIXTURE_RADEMACHER: "des-mr",
    }[model.kind]


def map_workers(pool: ThreadPoolExecutor | None, fn, count: int) -> list:
    """[fn(0), ..., fn(count - 1)] in index order, on the pool's threads if given."""
    if pool is None:
        return [fn(i) for i in range(count)]
    return list(pool.map(fn, range(count)))


def run_rounds(
    algorithm: str,
    cfg: RoundConfig,
    train: Dataset,
    test: Dataset,
    loss_kind: LossKind,
    reg: float,
    threads: int | None,
    timing: bool,
    instance: str,
    make_round,
    config_extra: dict,
) -> RunRecord:
    """The round loop every algorithm runs through.

    make_round(obj, partition) returns round_fn(t, x, pool) -> (x_next, evals),
    which advances the iterate by round t and reports the evaluations it spent;
    pool is None or a thread pool for map_workers. Row 0 snapshots the zero
    starting point; a round starts only while the evaluation total is below
    cfg.max_evals. Wall times are recorded only when timing=True; otherwise
    the column is a deterministic 0 so repeated runs serialize byte-identically.
    """
    obj = RegularizedObjective(loss_kind, train, reg)
    partition = partition_uniform(train, cfg.workers, RngStream(cfg.seed, "partition"))
    round_fn = make_round(obj, partition)
    record = RunRecord(algorithm=algorithm, instance=instance, seed=cfg.seed, config={
        "workers": cfg.workers, "rounds": cfg.rounds, "local_iters": cfg.local_iters,
        "batch_size": cfg.batch_size, "alpha": cfg.alpha, "loss": loss_kind.value,
        "reg": reg, **config_extra,
    })

    x = np.zeros(train.n_features)
    done = 0
    cum = 0

    def snapshot(wall_ms: float) -> None:
        record.rows.append(MetricRow(
            round=done,
            cum_evals=cum,
            train_loss=obj.eval_full(x),
            train_err=classification_error(x, train),
            test_err=classification_error(x, test),
            wall_ms=wall_ms if timing else 0.0,
        ))

    snapshot(0.0)
    pool = ThreadPoolExecutor(max_workers=threads) if threads is not None and threads > 1 else None
    try:
        for t in range(cfg.rounds):
            if cfg.max_evals is not None and cum >= cfg.max_evals:
                break
            start = time.perf_counter()
            x, evals = round_fn(t, x, pool)
            cum += evals
            done += 1
            snapshot((time.perf_counter() - start) * 1e3)
    finally:
        if pool is not None:
            pool.shutdown()
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
    """Run cfg.rounds DES rounds from the zero point, one metric row per round."""

    def make_round(obj, partition):
        state = ServerState.initial(train.n_features)

        def round_fn(t, x, pool):
            nonlocal state
            state, metrics = des_round(state, cfg, lambda i: obj, partition)
            return state.x, metrics.evals
        return round_fn

    return run_rounds(_algo_id(cfg.model), cfg, train, test, loss_kind, reg, threads, timing,
                      instance, make_round, {"beta": cfg.beta, "model": cfg.model.kind.value,
                                             "mixture_size": cfg.model.l})
