"""Budget-matched comparison algorithms: federated zeroth-order descent with
fixed or fresh minibatches, sign-vote zeroth-order SGD, and a distributed
(mu/mu, lambda)-ES with cumulative step-size adaptation.

All four consume exactly workers * local_iters * batch_size objective
evaluations per round when local_iters is even and the zeroth-order baselines
use one smoothing direction, the default (d directions cost d times as much;
the ES population size must divide the budget evenly; see csa_population_size). Each is a
generator of rounds that server.run_rounds drives from the zero point, as DES
is. Each round runs its M workers in the calling thread: the zeroth-order
baselines step all of them in lockstep through one StackedBatch per minibatch
draw, as DES does.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bench import RunRecord
from .localsolver import NonFiniteObjectiveError
from .mutation import RngStream
from .objective import Dataset, LossKind, StackedBatch, squared_norms
from .server import RoundConfig, run_rounds

# Unused here, but benchmarks/tracing.py patches both through this module's __dict__.
from .dataio import partition_uniform  # noqa: F401
from .objective import classification_error  # noqa: F401


class BaselineConfig(RoundConfig):
    """Shared knobs: K' = local_iters // 2 descent steps (two evaluations per
    zeroth-order estimate), alpha doubles as the ES initial step-size."""


@dataclass(frozen=True)
class SmoothingConfig:
    """Finite-difference radius and directions per gradient estimate."""

    mu: float = 1e-6
    directions: int = 1

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.directions < 1:
            raise ValueError(f"directions must be >= 1, got {self.directions}")


def _zo_grads(values_fn, X: np.ndarray, smoothing: SmoothingConfig, streams) -> np.ndarray:
    """Central-difference Gaussian-smoothing gradient estimates at the M rows of X.

    Each direction draws u_i ~ N(0,I) from streams[i], in stream order, and
    scores all M points X + mu*U with one values_fn call, then X - mu*U with
    another; row i gains ((f_i(x_i+mu*u_i) - f_i(x_i-mu*u_i)) / 2mu) * u_i.
    Multiple directions are averaged. A NaN estimate raises
    NonFiniteObjectiveError, as a NaN value does in DES.
    """
    total = np.zeros(X.shape)
    for _ in range(smoothing.directions):
        U = np.stack([stream.gen.standard_normal(X.shape[1]) for stream in streams])
        fp = values_fn(X + smoothing.mu * U)
        fm = values_fn(X - smoothing.mu * U)
        total += ((fp - fm) / (2.0 * smoothing.mu))[:, None] * U
    if np.isnan(total).any():
        raise NonFiniteObjectiveError("zeroth-order gradient estimate is NaN")
    return total / smoothing.directions


def zo_grad_central(value_fn, x: np.ndarray, smoothing: SmoothingConfig, stream) -> np.ndarray:
    """The one-point case of _zo_grads: two value_fn calls per direction."""
    X = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return _zo_grads(lambda V: np.array([value_fn(V[0])]), X, smoothing, [stream])[0]


def sign_plus(v: np.ndarray) -> np.ndarray:
    """Elementwise sign into {-1,+1}, with 0 mapping to +1."""
    return np.where(np.asarray(v) >= 0.0, 1.0, -1.0)


def _half_iters(cfg: BaselineConfig) -> int:
    k_prime = cfg.local_iters // 2
    if k_prime < 1:
        raise ValueError(f"local_iters={cfg.local_iters} leaves no descent steps (need >= 2)")
    if cfg.local_iters % 2:
        forfeited = (cfg.local_iters - 2 * k_prime) * cfg.batch_size
        warnings.warn(
            f"odd local_iters={cfg.local_iters}: forfeiting {forfeited} "
            "evaluations per worker per round to keep estimates paired",
            stacklevel=4,
        )
    return k_prime


def _run_zo(algorithm, cfg, train, test, loss_kind, reg, smoothing, timing, instance,
            local) -> RunRecord:
    """Round skeleton of the zeroth-order baselines, all M workers in lockstep.

    Round t calls local(t, X, k_prime, next_grads), X the broadcast point tiled
    into M rows, and local returns the next iterate. next_grads() gathers each
    worker's next minibatch (from its (t, i, "batch") stream) into one
    StackedBatch and returns grads, where grads(X) is each worker's estimate at
    its row of X on that minibatch, directions from its (t, i, "smoothing") stream.
    """
    k_prime = _half_iters(cfg)
    evals = cfg.workers * k_prime * 2 * cfg.batch_size * smoothing.directions

    def rounds(obj, partition, x):
        for t in range(cfg.rounds):
            batch_streams = [RngStream(cfg.seed, t, i, "batch") for i in range(cfg.workers)]
            sm_streams = [RngStream(cfg.seed, t, i, "smoothing") for i in range(cfg.workers)]

            def next_grads():
                batch = StackedBatch(obj, [partition.minibatch(i, stream, cfg.batch_size)
                                           for i, stream in enumerate(batch_streams)])
                return lambda X: _zo_grads(batch.values, X, smoothing, sm_streams)

            x = local(t, np.tile(x, (cfg.workers, 1)), k_prime, next_grads)
            yield x, evals

    return run_rounds(algorithm, cfg, train, test, loss_kind, reg, timing,
                      instance, rounds, {"mu": smoothing.mu})


def run_fed_zo_gd(
    cfg: BaselineConfig,
    train: Dataset,
    test: Dataset,
    loss_kind: LossKind,
    reg: float = 1e-6,
    smoothing: SmoothingConfig = SmoothingConfig(),
    timing: bool = False,
    instance: str = "",
) -> RunRecord:
    """Federated averaging over zeroth-order descent on one fixed minibatch
    per worker per round, step alpha / ((k+1) * sqrt(t+1))."""

    def local(t, X, k_prime, next_grads):
        grads = next_grads()
        for k in range(k_prime):
            X -= cfg.alpha / ((k + 1) * math.sqrt(t + 1)) * grads(X)
        return np.mean(X, axis=0)

    return _run_zo("fed-zo-gd", cfg, train, test, loss_kind, reg, smoothing, timing,
                   instance, local)


def run_fed_zo_sgd(
    cfg: BaselineConfig,
    train: Dataset,
    test: Dataset,
    loss_kind: LossKind,
    reg: float = 1e-6,
    smoothing: SmoothingConfig = SmoothingConfig(),
    timing: bool = False,
    instance: str = "",
) -> RunRecord:
    """As run_fed_zo_gd but each local step draws a fresh minibatch and the
    step-size is alpha / sqrt((k+1) * (t+1))."""

    def local(t, X, k_prime, next_grads):
        for k in range(k_prime):
            X -= cfg.alpha / math.sqrt((k + 1) * (t + 1)) * next_grads()(X)
        return np.mean(X, axis=0)

    return _run_zo("fed-zo-sgd", cfg, train, test, loss_kind, reg, smoothing, timing,
                   instance, local)


def run_zo_signsgd(
    cfg: BaselineConfig,
    train: Dataset,
    test: Dataset,
    loss_kind: LossKind,
    reg: float = 1e-6,
    smoothing: SmoothingConfig = SmoothingConfig(),
    timing: bool = False,
    instance: str = "",
) -> RunRecord:
    """Majority-vote sign descent: each worker averages K' estimates at the
    broadcast point (fresh minibatch each), votes with the elementwise sign,
    and the server steps along the sign of the vote sum."""

    def local(t, X, k_prime, next_grads):
        g_sum = np.zeros(X.shape)
        for _ in range(k_prime):
            g_sum += next_grads()(X)
        votes = sign_plus(g_sum / k_prime)
        return X[0] - cfg.alpha / math.sqrt(t + 1) * sign_plus(np.sum(votes, axis=0))

    return _run_zo("zo-signsgd", cfg, train, test, loss_kind, reg, smoothing, timing,
                   instance, local)


@dataclass(frozen=True)
class CsaState:
    """Mean, global step-size, and the evolution path of the (mu/mu, lambda)-ES."""

    mean: np.ndarray
    sigma: float
    p_sigma: np.ndarray
    lam: int
    mu_sel: int
    weights: np.ndarray

    def __post_init__(self):
        if self.lam < 2:
            raise ValueError(f"population size must be >= 2, got {self.lam}")
        if not 1 <= self.mu_sel <= self.lam:
            raise ValueError(f"parent count {self.mu_sel} outside [1, {self.lam}]")
        if np.any(self.weights < 0) or not math.isclose(float(self.weights.sum()), 1.0):
            raise ValueError("weights must be nonnegative and sum to 1")


def csa_population_size(workers: int, local_iters: int, batch_size: int, num_train: int) -> int:
    """Population size matching the per-round budget: round(M*K*b / N)."""
    lam = round(workers * local_iters * batch_size / num_train)
    if lam < 2:
        raise ValueError(
            f"per-round budget {workers * local_iters * batch_size} over {num_train} "
            f"training examples gives population {lam} < 2; raise workers, "
            "local_iters, or batch_size, or shrink the training set"
        )
    return lam


def csa_init(x0: np.ndarray, lam: int, sigma0: float) -> CsaState:
    mu_sel = lam // 2
    weights = np.full(mu_sel, 1.0 / mu_sel)
    return CsaState(
        mean=np.array(x0, dtype=np.float64),
        sigma=float(sigma0),
        p_sigma=np.zeros(len(x0)),
        lam=lam,
        mu_sel=mu_sel,
        weights=weights,
    )


def _expected_chi_norm(n: int) -> float:
    # E||N(0, I_n)|| via the usual series approximation
    return math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))


def csa_step(state: CsaState, draws: np.ndarray, values: np.ndarray) -> CsaState:
    """One comma-selection update given the draws behind the population.

    draws is (lam, n) standard normal; candidate j was mean + sigma*draws[j]
    and values[j] its objective value. The best mu_sel recombine with equal
    weights; the path length against its stationary distribution drives the
    step-size.
    """
    if draws.shape[0] != state.lam or values.shape != (state.lam,):
        raise ValueError("draws/values do not match the population size")
    order = np.argsort(values, kind="stable")
    selected = draws[order[: state.mu_sel]]
    z_mean = state.weights @ selected
    mu_eff = 1.0 / float(np.sum(state.weights**2))
    n = state.mean.shape[0]
    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    p_next = (1.0 - c_sigma) * state.p_sigma + math.sqrt(c_sigma * (2.0 - c_sigma) * mu_eff) * z_mean
    ratio = math.sqrt(float(np.sum(np.square(p_next)))) / _expected_chi_norm(n)
    sigma_next = state.sigma * math.exp((c_sigma / d_sigma) * (ratio - 1.0))
    return replace(
        state,
        mean=state.mean + state.sigma * z_mean,
        sigma=sigma_next,
        p_sigma=p_next,
    )


def run_es_csa(
    cfg: BaselineConfig,
    train: Dataset,
    test: Dataset,
    loss_kind: LossKind,
    reg: float = 1e-6,
    timing: bool = False,
    instance: str = "",
) -> RunRecord:
    """Server-sampled (mu/mu, lambda)-ES: every worker scores the whole
    population on its full shard, the server assembles exact full-data
    objective values, selects, recombines, and adapts sigma."""
    lam = csa_population_size(cfg.workers, cfg.local_iters, cfg.batch_size, len(train))

    def rounds(obj, partition, x0):
        views = [obj.batch(shard) for shard in partition.worker_shards]
        state = csa_init(x0, lam, sigma0=cfg.alpha)
        for t in range(cfg.rounds):
            draws = RngStream(cfg.seed, t, "csa").gen.standard_normal((lam, train.n_features))
            candidates = state.mean + state.sigma * draws
            shard_sums = [view.loss_sum_many(candidates) for view in views]
            values = np.sum(np.asarray(shard_sums), axis=0) / len(train)
            values += 0.5 * reg * squared_norms(candidates)
            state = csa_step(state, draws, values)
            yield state.mean, lam * len(train)

    return run_rounds("es-csa", cfg, train, test, loss_kind, reg, timing,
                      instance, rounds, {"lambda": lam})
