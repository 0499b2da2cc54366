"""The local (1+1)-ES: diminishing step-size schedule, tie-accepting greedy
selection, and the fixed-minibatch solver loop that advances all workers of a
round in lockstep.
"""
from __future__ import annotations

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


def accept(f_parent, f_candidate):
    """Greedy selection: keep the candidate iff f_candidate <= f_parent.

    Ties accept (the zero case counts as an improvement). NaN on either side
    means the objective is poisoned and raises rather than silently ranking.
    Works elementwise on arrays of worker values.
    """
    if np.isnan(f_parent).any() or np.isnan(f_candidate).any():
        raise NonFiniteObjectiveError(
            f"objective returned NaN (parent={f_parent!r}, candidate={f_candidate!r})"
        )
    return f_candidate <= f_parent


class CallableBatch:
    """Evaluator over one value function per worker, called one point at a
    time; the functions do their own evaluation accounting."""

    def __init__(self, value_fns: list[Callable[[np.ndarray], float]]):
        self.value_fns = value_fns

    def plan(self, cols: np.ndarray, blocks=None) -> None:
        pass

    def values(self, V: np.ndarray, before: np.ndarray | None = None) -> np.ndarray:
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


def run_lockstep_es(
    V: np.ndarray,
    cfg: LocalConfig,
    batch,
    streams: list | None,
    f_start,
    traces: list[Callable[[int, float, np.ndarray, float], None]] | None = None,
    planned: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run cfg.iters (1+1)-ES iterations on every row of V at once, in place.

    Row i of V (M x n, C-contiguous) is worker i's point and f_start[i] its
    value. Every iteration, all M candidates v_i + step_k * u_i with
    step_k = step0 / sqrt(k+1) are evaluated by one batch.values call, and
    each worker keeps its candidate on ties or improvement; batch.keep(accepted)
    then drops the rejected candidates from any state the evaluator holds.
    Mixture mutations u_i are mixture_draws from streams at the start, and
    batch.plan(cols, blocks) receives the round's changed flat coordinates
    i*n + j at once, row k for iteration k; planned, if given, is
    (cols, terms, blocks) prepared ahead (streams is then unused), else the
    draws are made here and blocks is None. Their candidates are made in
    place and scored by batch.values(V, before), where before holds the kept
    values at row k's coordinates. Dense mutations come in
    per-round blocks of up to DENSE_BLOCK // n iterations, one
    standard_normal((rows, n)) call per stream in worker order (the numbers of
    rows standard_normal(n) calls), and are scored by batch.values(candidates).
    traces[i], if given, receives (k, step_k, v_i copy, f_i) after every
    iteration. Returns (final values, accepted counts), both of length M.
    """
    if not V.flags.c_contiguous:
        raise ValueError("the stacked points must be one C-contiguous array")
    f = np.array(f_start, dtype=np.float64)
    if np.isnan(f).any():
        raise NonFiniteObjectiveError(f"objective returned NaN at the start point ({f!r})")
    model = cfg.model
    flat = V.reshape(-1)
    accepted = np.zeros(len(V), dtype=np.int64)
    if model.is_mixture:
        if planned is None:
            planned = (*mixture_draws(model, [stream.gen for stream in streams], cfg.iters), None)
        all_cols, all_terms, blocks = planned
        batch.plan(all_cols, blocks)
        owner = np.repeat(np.arange(len(V)), model.l)  # the worker of each changed slot
    else:
        gens = [stream.gen for stream in streams]
        chunk = min(cfg.iters, max(1, DENSE_BLOCK // model.n))

    for k in range(cfg.iters):
        step = cfg.step0 * (k + 1) ** -0.5
        if model.is_mixture:
            # Sparse candidates: perturb in place, then put back the saved
            # slots of rejected workers. Duplicate indices accumulate in draw
            # order and restore to the value saved before any of them.
            cols = all_cols[k]
            saved = flat[cols]
            np.add.at(flat, cols, step * all_terms[k])
            f_cand = batch.values(V, saved)
            ok = accept(f, f_cand)
            undo = (~ok)[owner]
            flat[cols[undo]] = saved[undo]
        else:
            if k % chunk == 0:
                # (rows, M, n): row j holds iteration k + j's mutations
                block = np.stack([gen.standard_normal((min(chunk, cfg.iters - k), model.n))
                                  for gen in gens], axis=1)
            candidates = V + step * block[k % chunk]
            f_cand = batch.values(candidates)
            ok = accept(f, f_cand)
            V[ok] = candidates[ok]
        batch.keep(ok)
        f = np.where(ok, f_cand, f)
        accepted += ok
        if traces is not None:
            for i, trace in enumerate(traces):
                trace(k, step, V[i].copy(), float(f[i]))
    return f, accepted


def run_local_es(
    x_start: np.ndarray,
    cfg: LocalConfig,
    value_fn: Callable[[np.ndarray], float],
    stream,
    f_start: float | None = None,
    evals_per_call: int = 1,
    trace: Callable[[int, float, np.ndarray, float], None] | None = None,
) -> WorkerResult:
    """Run cfg.iters iterations of the (1+1)-ES from x_start on a fixed objective.

    The one-worker case of run_lockstep_es. Each iteration draws a mutation u
    from cfg.model, evaluates the candidate v + step_k * u with
    step_k = step0 / sqrt(k+1), and accepts on ties or improvement. The
    parent value is carried forward, so the loop costs one value_fn call per
    iteration; pass f_start to supply the initial parent value from an
    uncounted path. evals_per_call sizes the evaluation ledger (b for
    minibatch objectives). trace, if given, receives (k, step_k, v_copy, f_v)
    after every iteration.
    """
    V = np.array(x_start, dtype=np.float64, copy=True).reshape(1, -1)
    f_v = value_fn(V[0]) if f_start is None else float(f_start)
    f, accepted = run_lockstep_es(V, cfg, CallableBatch([value_fn]), [stream], [f_v],
                                  None if trace is None else [trace])
    return WorkerResult(
        v_final=V[0],
        f_final=float(f[0]),
        evals_used=cfg.iters * evals_per_call,
        accepted_count=int(accepted[0]),
    )
