"""Budget-matched comparison algorithms: federated zeroth-order descent with
fixed or fresh minibatches, sign-vote zeroth-order SGD, and a distributed
(mu/mu, lambda)-ES with cumulative step-size adaptation.

All four consume exactly workers * local_iters * batch_size objective
evaluations per round when local_iters is even (the ES population size must
additionally divide the budget evenly; see csa_population_size). Each round
runs its M workers one after another in the calling thread, in index order.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bench import RunRecord
from .mutation import RngStream
from .objective import Dataset, LossKind
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


def zo_grad_central(value_fn, x: np.ndarray, smoothing: SmoothingConfig, stream) -> np.ndarray:
    """Central-difference Gaussian-smoothing gradient estimate.

    Each direction u ~ N(0,I) contributes ((f(x+mu*u) - f(x-mu*u)) / 2mu) * u
    at the cost of two value_fn calls; multiple directions are averaged.
    """
    gen = stream.gen
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros(x.shape[0])
    for _ in range(smoothing.directions):
        u = gen.standard_normal(x.shape[0])
        fp = value_fn(x + smoothing.mu * u)
        fm = value_fn(x - smoothing.mu * u)
        total += ((fp - fm) / (2.0 * smoothing.mu)) * u
    return total / smoothing.directions


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
            local, combine) -> RunRecord:
    """Round skeleton of the zeroth-order baselines.

    Worker i of round t calls local(t, x, k_prime, next_view, grad): next_view()
    slices a fresh minibatch from the worker's shard, and grad(view, point) is a
    central-difference estimate on it. Both draw from (t, i)-keyed streams.
    combine(t, x, worker_results) gives the next iterate.
    """
    k_prime = _half_iters(cfg)
    evals = cfg.workers * k_prime * 2 * cfg.batch_size * smoothing.directions

    def make_round(obj, partition):
        def round_fn(t, x):
            def worker(i):
                batch_stream = RngStream(cfg.seed, t, i, "batch")
                sm_stream = RngStream(cfg.seed, t, i, "smoothing")

                def next_view():
                    return obj.batch(partition.minibatch(i, batch_stream, cfg.batch_size))

                def grad(view, point):
                    return zo_grad_central(view.value, point, smoothing, sm_stream)

                return local(t, x, k_prime, next_view, grad)

            return combine(t, x, [worker(i) for i in range(cfg.workers)]), evals
        return round_fn

    return run_rounds(algorithm, cfg, train, test, loss_kind, reg, timing,
                      instance, make_round, {"mu": smoothing.mu})


def _mean(t, x, finals):
    return np.mean(np.asarray(finals), axis=0)


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

    def local(t, x, k_prime, next_view, grad):
        view = next_view()
        xi = x.copy()
        for k in range(k_prime):
            xi -= cfg.alpha / ((k + 1) * math.sqrt(t + 1)) * grad(view, xi)
        return xi

    return _run_zo("fed-zo-gd", cfg, train, test, loss_kind, reg, smoothing, timing,
                   instance, local, _mean)


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

    def local(t, x, k_prime, next_view, grad):
        xi = x.copy()
        for k in range(k_prime):
            xi -= cfg.alpha / math.sqrt((k + 1) * (t + 1)) * grad(next_view(), xi)
        return xi

    return _run_zo("fed-zo-sgd", cfg, train, test, loss_kind, reg, smoothing, timing,
                   instance, local, _mean)


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

    def local(t, x, k_prime, next_view, grad):
        g_sum = np.zeros(x.shape[0])
        for _ in range(k_prime):
            g_sum += grad(next_view(), x)
        return sign_plus(g_sum / k_prime)

    def combine(t, x, votes):
        return x - cfg.alpha / math.sqrt(t + 1) * sign_plus(np.sum(np.asarray(votes), axis=0))

    return _run_zo("zo-signsgd", cfg, train, test, loss_kind, reg, smoothing, timing,
                   instance, local, combine)


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

    def make_round(obj, partition):
        views = [obj.batch(shard) for shard in partition.worker_shards]
        state = csa_init(np.zeros(train.n_features), lam, sigma0=cfg.alpha)

        def round_fn(t, x):
            nonlocal state
            draws = RngStream(cfg.seed, t, "csa").gen.standard_normal((lam, train.n_features))
            candidates = state.mean + state.sigma * draws
            shard_sums = [view.loss_sum_many(candidates) for view in views]
            values = np.sum(np.asarray(shard_sums), axis=0) / len(train)
            values += 0.5 * reg * np.sum(candidates**2, axis=1)
            state = csa_step(state, draws, values)
            return state.mean.copy(), lam * len(train)
        return round_fn

    return run_rounds("es-csa", cfg, train, test, loss_kind, reg, timing,
                      instance, make_round, {"lambda": lam})
