"""The local (1+1)-ES: diminishing step-size schedule, tie-accepting greedy
selection, and the fixed-minibatch solver loop that advances all workers of a
round in lockstep.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mutation import MutationModel, draw_terms

# The most Gaussian values a dense round draws per worker in one block
DENSE_BLOCK = 2**16


class NonFiniteObjectiveError(RuntimeError):
    """The objective returned NaN, or a snapshot a non-finite loss; the run
    cannot proceed."""


@dataclass(frozen=True)
class LocalConfig:
    """Per-round worker configuration: iteration count, mutation model, and
    the round's initial step-size (already annealed by the server)."""

    iters: int
    model: MutationModel
    step0: float

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if not self.step0 > 0:
            raise ValueError(f"step0 must be positive, got {self.step0}")


@dataclass(frozen=True)
class WorkerResult:
    v_final: np.ndarray
    f_final: float
    evals_used: int
    accepted_count: int


def step_size(alpha: float, t: int, k: int) -> float:
    """Annealed step-size: alpha * (t+1)^(-1/4) * (k+1)^(-1/2).

    t is the round index, k the local iteration index, both 0-based. The
    round factor is applied first so the local solver can be handed the
    per-round base step and apply only the (k+1)^(-1/2) factor, reproducing
    this product exactly.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if t < 0 or k < 0:
        raise ValueError("round and iteration indices must be nonnegative")
    return alpha * (t + 1) ** -0.25 * (k + 1) ** -0.5


class CallableBatch:
    """Evaluator over one value function per worker, called one point at a
    time; the functions do their own evaluation accounting."""

    def __init__(self, value_fns: list[Callable[[np.ndarray], float]]):
        self.value_fns = value_fns

    def values(self, V: np.ndarray, move=None) -> np.ndarray:
        return np.array([fn(v) for fn, v in zip(self.value_fns, V)], dtype=np.float64)

    def keep(self, accepted: np.ndarray) -> None:
        pass


def mixture_draws(model: MutationModel, gens: list, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """A round's mixture mutations for the workers whose generators are gens:
    one draw_terms block of iters samples per worker, in worker order. Returns
    (cols, terms), both iters x M*l: row k holds iteration k's changed flat
    coordinates i*n + j, worker by worker, and their scaled terms."""
    idx, terms = zip(*(draw_terms(model, gen, iters) for gen in gens))
    cols = np.stack(idx, axis=1) + (np.arange(len(gens)) * model.n)[:, None]
    return cols.reshape(iters, -1), np.stack(terms, axis=1).reshape(iters, -1)


def dense_draws(model: MutationModel, gens: list, iters: int, batch_size: int = 1):
    """A round's dense mutations for the workers whose generators are gens,
    drawn as needed in blocks of at most DENSE_BLOCK // max(n, batch_size)
    iterations, so that a block and its products over a worker's
    batch_size rows hold at most DENSE_BLOCK values per worker each: one
    standard_normal((rows, n)) call per generator in worker order (the
    numbers of rows standard_normal(n) calls). Yields each block as one
    (rows, M, n) array, whose row j holds iteration k + j's M x n mutations."""
    chunk = min(iters, max(1, DENSE_BLOCK // max(model.n, batch_size)))
    for k in range(0, iters, chunk):
        yield np.stack([gen.standard_normal((min(chunk, iters - k), model.n)) for gen in gens],
                       axis=1)


def run_lockstep_es(
    V: np.ndarray,
    cfg: LocalConfig,
    batch,
    mutations,
    f_start,
) -> tuple[np.ndarray, np.ndarray]:
    """Run cfg.iters (1+1)-ES iterations on every row of V at once, in place.

    Row i of V (M x n, C-contiguous) is worker i's point and f_start[i] its
    value. Every iteration, all M candidates v_i + step_k * u_i with
    step_k = step0 / sqrt(k+1) are evaluated by one batch.values call, and
    each worker keeps its candidate on ties or improvement; batch.keep(accepted)
    then drops the rejected candidates from any state the evaluator holds.
    The caller draws the mutations and plans batch; this does neither.
    Mixture mutations are mixture_draws' (cols, terms); their candidates are
    made in place and scored by batch.values(V, before), where before holds
    the kept values at row k's coordinates. Dense ones are dense_draws'
    blocks, read as the iterations reach them; each iteration's M x n
    candidates are scored by batch.values(candidates, step_k), which a
    StackedBatch planned with the blocks' products scores from its kept
    margins, and which other evaluators score point by point. The solver
    reports only through batch's two calls and its return: (final values,
    accepted counts), both of length M.
    """
    if not V.flags.c_contiguous:
        raise ValueError("the stacked points must be one C-contiguous array")
    f = np.array(f_start, dtype=np.float64)
    if np.isnan(f).any():
        raise NonFiniteObjectiveError(f"objective returned NaN at the start point ({f!r})")
    model, mixture = cfg.model, cfg.model.is_mixture
    flat = V.reshape(-1)
    accepted = np.zeros(len(V), dtype=np.int64)
    if mixture:
        all_cols, all_terms = mutations
        owner = np.repeat(np.arange(len(V)), model.l)  # the worker of each changed slot
    else:
        mutations = itertools.chain.from_iterable(mutations)

    for k in range(cfg.iters):
        step = cfg.step0 * (k + 1) ** -0.5
        if mixture:
            # Sparse candidates: perturb in place, then put back the saved
            # slots of rejected workers. Duplicate indices accumulate in draw
            # order and restore to the value saved before any of them.
            cols = all_cols[k]
            saved = flat[cols]
            np.add.at(flat, cols, step * all_terms[k])
            f_cand = batch.values(V, saved)
        else:
            candidates = V + step * next(mutations)
            f_cand = batch.values(candidates, step)
        # f holds checked values only, so NaN is checked on the candidates alone; ties accept
        if np.isnan(f_cand).any():
            raise NonFiniteObjectiveError(f"objective returned NaN at a candidate ({f_cand!r})")
        ok = f_cand <= f
        if mixture:
            undo = (~ok)[owner]
            flat[cols[undo]] = saved[undo]
        else:
            np.copyto(V, candidates, where=ok[:, None])
        batch.keep(ok)
        np.copyto(f, f_cand, where=ok)
        accepted += ok
    return f, accepted


def run_local_es(
    x_start: np.ndarray,
    cfg: LocalConfig,
    value_fn: Callable[[np.ndarray], float],
    stream,
    f_start: float | None = None,
    evals_per_call: int = 1,
) -> WorkerResult:
    """Run cfg.iters iterations of the (1+1)-ES from x_start on a fixed objective.

    The one-worker case of run_lockstep_es, drawing its own mutations from
    stream. Each iteration evaluates the candidate v + step_k * u with
    step_k = step0 / sqrt(k+1), and accepts on ties or improvement. The
    parent value is carried forward, so the loop costs one value_fn call per
    iteration; pass f_start to supply the initial parent value from an
    uncounted path. evals_per_call sizes the evaluation ledger (b for
    minibatch objectives). It scores every candidate through a CallableBatch
    of value_fn and reports only the WorkerResult.
    """
    V = np.array(x_start, dtype=np.float64, copy=True).reshape(1, -1)
    f_v = value_fn(V[0]) if f_start is None else float(f_start)
    draws = mixture_draws if cfg.model.is_mixture else dense_draws
    f, accepted = run_lockstep_es(V, cfg, CallableBatch([value_fn]),
                                  draws(cfg.model, [stream.gen], cfg.iters), [f_v])
    return WorkerResult(v_final=V[0], f_final=float(f[0]), evals_used=cfg.iters * evals_per_call,
                        accepted_count=int(accepted[0]))
