"""Benchmark bookkeeping: per-run metric records, seed aggregation into
median/quartile curves, Dolan-More performance profiles, and CSV persistence.

Floats are serialized with 17 significant digits so CSV round-trips are exact.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MetricRow:
    round: int
    cum_evals: int
    train_loss: float
    train_err: float
    test_err: float
    wall_ms: float = 0.0


@dataclass
class RunRecord:
    """One algorithm run on one instance with one seed: a row per round,
    round 0 being the untouched starting point."""

    algorithm: str
    instance: str
    seed: int
    config: dict
    rows: list[MetricRow] = field(default_factory=list)

    def validate(self) -> "RunRecord":
        for prev, row in zip(self.rows, self.rows[1:]):
            if row.round <= prev.round:
                raise ValueError("rounds must be strictly increasing")
            if row.cum_evals < prev.cum_evals:
                raise ValueError("cumulative evaluations must be nondecreasing")
        return self


@dataclass(frozen=True)
class AggregateCurve:
    """Median and quartile band across seeds, one entry per round."""

    algorithm: str
    instance: str
    rounds: tuple[int, ...]
    train_loss_median: tuple[float, ...]
    train_loss_p25: tuple[float, ...]
    train_loss_p75: tuple[float, ...]


def aggregate_runs(records: list[RunRecord]) -> AggregateCurve:
    """Collapse repeated-seed runs of one (algorithm, instance) cell."""
    if not records:
        raise ValueError("no records to aggregate")
    algo, inst = records[0].algorithm, records[0].instance
    for rec in records:
        if (rec.algorithm, rec.instance) != (algo, inst):
            raise ValueError(
                f"mixed cells: ({rec.algorithm!r}, {rec.instance!r}) vs ({algo!r}, {inst!r})"
            )
    grid = tuple(r.round for r in records[0].rows)
    for rec in records:
        if tuple(r.round for r in rec.rows) != grid:
            raise ValueError(f"mismatched round grids for seed {rec.seed}")
    losses = np.array([[r.train_loss for r in rec.rows] for rec in records])
    return AggregateCurve(
        algorithm=algo,
        instance=inst,
        rounds=grid,
        train_loss_median=tuple(np.median(losses, axis=0)),
        train_loss_p25=tuple(np.percentile(losses, 25, axis=0)),
        train_loss_p75=tuple(np.percentile(losses, 75, axis=0)),
    )


def solved(f_x0: float, f_achieved: float, f_best_all: float, delta: float) -> bool:
    """Decrease test: achieved drop strictly exceeds delta times the best drop."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    return (f_x0 - f_achieved) > delta * (f_x0 - f_best_all)


@dataclass(frozen=True)
class ProfileCurve:
    """Nondecreasing step function: fraction of instances solved within a
    ratio tau of the best performer's round count."""

    algorithm: str
    breakpoints: tuple[tuple[float, float], ...]

    def rho_at(self, tau: float) -> float:
        best = 0.0
        for t, r in self.breakpoints:
            if t <= tau:
                best = r
            else:
                break
        return best


def _first_solved_round(curve: AggregateCurve, f_x0: float, f_star: float, delta: float) -> float:
    for rnd, loss in zip(curve.rounds, curve.train_loss_median):
        if solved(f_x0, loss, f_star, delta):
            return float(rnd)
    return math.inf


def compute_profiles(records: list[RunRecord], delta: float) -> list[ProfileCurve]:
    """Performance profiles over the (algorithm, instance) matrix in records.

    Seeds collapse to median curves first. Per instance, the target f* is the
    raw minimum train loss over every algorithm, seed, and round; an
    algorithm's cost is the first round whose median loss meets the solved()
    test, infinite when never met. Ratios are cost / best cost among solvers;
    unsolved instances never enter a curve but stay in the denominator.
    Output is sorted by algorithm name and invariant to input ordering.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if not records:
        raise ValueError("no records")
    algos = sorted({rec.algorithm for rec in records})
    instances = sorted({rec.instance for rec in records})
    cells: dict[tuple[str, str], list[RunRecord]] = {}
    for rec in records:
        cells.setdefault((rec.algorithm, rec.instance), []).append(rec)
    for algo in algos:
        for inst in instances:
            if (algo, inst) not in cells:
                raise ValueError(f"missing runs for algorithm {algo!r} on instance {inst!r}")

    f_star = {
        inst: min(r.train_loss for rec in records if rec.instance == inst for r in rec.rows)
        for inst in instances
    }
    f_x0 = {
        inst: float(
            np.median([rec.rows[0].train_loss for rec in records if rec.instance == inst])
        )
        for inst in instances
    }

    cost = {
        (algo, inst): _first_solved_round(
            aggregate_runs(sorted(cells[(algo, inst)], key=lambda r: r.seed)),
            f_x0[inst],
            f_star[inst],
            delta,
        )
        for algo in algos
        for inst in instances
    }

    curves = []
    for algo in algos:
        ratios = []
        for inst in instances:
            best = min(cost[(a, inst)] for a in algos)
            c = cost[(algo, inst)]
            ratios.append(c / best if math.isfinite(c) else math.inf)
        finite = sorted(r for r in ratios if math.isfinite(r))
        breakpoints = []
        count = 0
        for tau in finite:
            count += 1
            if breakpoints and breakpoints[-1][0] == tau:
                breakpoints[-1] = (tau, count / len(instances))
            else:
                breakpoints.append((tau, count / len(instances)))
        curves.append(ProfileCurve(algorithm=algo, breakpoints=tuple(breakpoints)))
    return curves


METRICS_HEADER = [
    "algo", "instance", "seed", "round",
    "cum_evals", "train_loss", "train_err", "test_err", "wall_ms",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_metrics_csv(records: list[RunRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # csv quotes a field holding the terminator "\n" but not a lone "\r",
        # which its reader takes for a line break: a run so named is quoted whole
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(METRICS_HEADER)
        for rec in records:
            out = quoted if "\r" in rec.algorithm + rec.instance else writer
            for row in rec.rows:
                out.writerow([
                    rec.algorithm, rec.instance, str(rec.seed), str(row.round),
                    str(row.cum_evals), _fmt(row.train_loss), _fmt(row.train_err),
                    _fmt(row.test_err), _fmt(row.wall_ms),
                ])


def read_metrics_csv(path) -> list[RunRecord]:
    """Load a metrics CSV back into RunRecords (config echo not persisted).
    A row with the wrong number of fields, a field that does not parse, a
    non-finite loss, error or wall time, or a round or cum_evals out of order
    after the previous row of its run raises ValueError naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != METRICS_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        records: dict[tuple[str, str, int], RunRecord] = {}
        for line in reader:
            try:
                if len(line) != len(METRICS_HEADER):
                    raise ValueError(f"{len(line)} fields, expected {len(METRICS_HEADER)}")
                seed, row = int(line[2]), MetricRow(*map(int, line[3:5]), *map(float, line[5:]))
                for name in METRICS_HEADER[5:]:
                    if not math.isfinite(getattr(row, name)):
                        raise ValueError(f"{name} is {getattr(row, name)}, not a finite number")
                key = (line[0], line[1], seed)
                rows = records.setdefault(key, RunRecord(*key, config={})).rows
                rows.append(row)
                RunRecord(*key, {}, rows[-2:]).validate()  # against the run's previous row
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return list(records.values())


def write_profiles_csv(curves: list[ProfileCurve], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algo", "tau", "rho"])
        for curve in curves:
            for tau, rho in curve.breakpoints:
                writer.writerow([curve.algorithm, _fmt(tau), _fmt(rho)])
