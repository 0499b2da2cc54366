"""Experiment runner: JSON experiment specs expanded over datasets, losses,
algorithms, step-size grids, and seeds, with deterministic CSV outputs.

Exit codes: 0 success, 1 spec, usage or input error (a dataset that fails to
load included), 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from .baselines import (
    BaselineConfig,
    run_es_csa,
    run_fed_zo_gd,
    run_fed_zo_sgd,
    run_zo_signsgd,
)
from .bench import (
    aggregate_runs,
    compute_profiles,
    read_metrics_csv,
    write_metrics_csv,
    write_profiles_csv,
)
from .dataio import (
    SplitSpec,
    SynthKind,
    parse_libsvm,
    split_train_test,
    synth_dataset,
)
from .mutation import MutationKind, MutationModel, RngStream
from .objective import Dataset, LossKind
from .processes import forked, process_count
from .server import DesConfig, _algo_id, check_beta, run_des

_MODEL_NAMES = {kind.value: kind for kind in MutationKind}
_SYNTH_NAMES = {kind.value: kind for kind in SynthKind}
_ALGO_NAMES = ("des", "fed-zo-gd", "fed-zo-sgd", "zo-signsgd", "es-csa")


@dataclass(frozen=True)
class DatasetSpec:
    """Either a synthetic generator (synthetic+n+examples) or a LIBSVM path."""

    name: str
    synthetic: SynthKind | None = None
    n: int | None = None
    examples: int | None = None
    path: str | None = None
    label_threshold: float | None = None
    n_features: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class AlgoSpec:
    name: str
    alphas: tuple[float, ...] = (0.1, 1.0, 10.0)
    beta: float = 0.5
    model: str = "gaussian"
    mixture_size: int = 8
    allow_unsafe_beta: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
    datasets: tuple[DatasetSpec, ...]
    losses: tuple[LossKind, ...]
    algorithms: tuple[AlgoSpec, ...]
    workers: int = 10
    batch_size: int = 1000
    local_iters: int | None = None
    epochs: int | None = None
    split_fraction: float = 0.8
    reg: float = 1e-6
    delta: float = 0.1
    seeds: tuple[int, ...] = tuple(range(8))
    out_dir: str = "runs"


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ValueError(f"field {field!r}: {message}")


def _check_keys(entry, allowed: set[str], where: str) -> None:
    _require(isinstance(entry, dict), where, f"expected an object, got {entry!r}")
    for key in entry:
        if key not in allowed:
            raise ValueError(f"unexpected key {key!r} in {where}")


def _integer(value, field: str, minimum: int | None = None) -> int:
    bound = "" if minimum is None else f" >= {minimum}"
    _require(isinstance(value, int) and not isinstance(value, bool)
             and (minimum is None or value >= minimum),
             field, f"must be an integer{bound}, got {value!r}")
    return value


def _number(value, field: str) -> float:
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
    _require(math.isfinite(number), field, f"must be a finite number, got {value!r}")
    return number


def _choice(value, options, field: str):
    _require(isinstance(value, str) and value in options, field,
             f"expected one of {sorted(options)}, got {value!r}")
    return value


def _build_dataset_spec(entry: dict, index: int) -> DatasetSpec:
    where = f"datasets[{index}]"
    synth_keys = {"synthetic", "n", "examples"}
    path_keys = {"path", "label_threshold", "n_features"}
    _check_keys(entry, {"name", "seed"} | synth_keys | path_keys, where)
    _require("name" in entry, f"{where}.name", "required")
    synth = entry.get("synthetic")
    path = entry.get("path")
    _require((synth is None) != (path is None), where, "give exactly one of synthetic/path")
    seed = _integer(entry.get("seed", DatasetSpec.seed), f"{where}.seed")
    if synth is not None:
        _check_keys(entry, {"name", "seed"} | synth_keys, f"{where} (a synthetic dataset)")
        return DatasetSpec(
            name=str(entry["name"]),
            synthetic=_SYNTH_NAMES[_choice(synth, _SYNTH_NAMES, f"{where}.synthetic")],
            n=_integer(entry.get("n"), f"{where}.n", 1),
            examples=_integer(entry.get("examples"), f"{where}.examples", 2),
            seed=seed,
        )
    _check_keys(entry, {"name", "seed"} | path_keys, f"{where} (a path dataset)")
    _require(isinstance(path, str), f"{where}.path", f"must be a string, got {path!r}")
    threshold = entry.get("label_threshold")
    n_features = entry.get("n_features")
    return DatasetSpec(
        name=str(entry["name"]),
        path=path,
        label_threshold=None if threshold is None else _number(threshold, f"{where}.label_threshold"),
        n_features=None if n_features is None else _integer(n_features, f"{where}.n_features", 1),
        seed=seed,
    )


def _build_algo_spec(entry: dict, index: int) -> AlgoSpec:
    where = f"algorithms[{index}]"
    _check_keys(entry, {"name", "alpha", "beta", "model", "l", "allow_unsafe_beta"}, where)
    name = _choice(entry.get("name"), _ALGO_NAMES, f"{where}.name")
    if name != "des":  # only DES has momentum and a mutation model
        _check_keys(entry, {"name", "alpha"}, f"{where} (a {name} entry)")
    alpha = entry.get("alpha", list(AlgoSpec.alphas))
    alphas = tuple(_number(a, f"{where}.alpha") for a in (alpha if isinstance(alpha, list) else [alpha]))
    _require(len(alphas) > 0 and all(a > 0 for a in alphas), f"{where}.alpha",
             "step-sizes must be positive")
    beta = _number(entry.get("beta", AlgoSpec.beta), f"{where}.beta")
    allow_unsafe = entry.get("allow_unsafe_beta", AlgoSpec.allow_unsafe_beta)
    _require(isinstance(allow_unsafe, bool), f"{where}.allow_unsafe_beta", "must be true or false")
    try:
        check_beta(beta, allow_unsafe)
    except ValueError as exc:
        raise ValueError(f"field {where + '.beta'!r}: {exc}") from None
    return AlgoSpec(
        name=name,
        alphas=alphas,
        beta=beta,
        model=_choice(entry.get("model", AlgoSpec.model), _MODEL_NAMES, f"{where}.model"),
        mixture_size=_integer(entry.get("l", AlgoSpec.mixture_size), f"{where}.l", 1),
        allow_unsafe_beta=allow_unsafe,
    )


def _run_id(algo: AlgoSpec, alpha: float) -> str:
    """The algorithm column of a cell's records: DES is named by its mutation
    model, and an entry with more than one step-size tags each cell with it."""
    name = _algo_id(_MODEL_NAMES[algo.model]) if algo.name == "des" else algo.name
    return f"{name}@a={alpha:g}" if len(algo.alphas) > 1 else name


def _require_distinct(field: str, keyed) -> None:
    """Each (key, where) pair names one part of a run key (algo, instance, seed);
    two entries with one key would write their rows as seeds of one run."""
    first: dict[str, str] = {}
    for key, where in keyed:
        _require(key not in first, field,
                 f"{first.get(key)} and {where} share the run key part {key!r}")
        first[key] = where


def _build_spec(raw: dict) -> ExperimentSpec:
    _check_keys(raw, {"datasets", "losses", "algorithms", "workers", "batch_size",
                      "local_iters", "epochs", "split_fraction", "reg", "delta",
                      "seeds", "out_dir"}, "experiment spec")
    _require(isinstance(raw.get("datasets"), list) and raw["datasets"], "datasets",
             "need at least one dataset")
    _require(isinstance(raw.get("algorithms"), list) and raw["algorithms"], "algorithms",
             "need at least one algorithm")
    datasets = tuple(_build_dataset_spec(e, i) for i, e in enumerate(raw["datasets"]))
    algorithms = tuple(_build_algo_spec(e, i) for i, e in enumerate(raw["algorithms"]))

    loss_names = raw.get("losses", ["LR"])
    _require(isinstance(loss_names, list) and loss_names, "losses", "need at least one loss")
    losses = tuple(LossKind[_choice(name, LossKind.__members__, "losses")] for name in loss_names)
    _require_distinct("datasets", ((ds.name, f"datasets[{i}]") for i, ds in enumerate(datasets)))
    _require_distinct("losses", ((loss.value, f"losses[{i}]") for i, loss in enumerate(losses)))
    _require_distinct("algorithms", ((_run_id(algo, alpha), f"algorithms[{i}] alpha {alpha!r}")
                                     for i, algo in enumerate(algorithms) for alpha in algo.alphas))

    workers = _integer(raw.get("workers", ExperimentSpec.workers), "workers", 1)
    batch_size = _integer(raw.get("batch_size", ExperimentSpec.batch_size), "batch_size", 1)
    for field in ("local_iters", "epochs"):  # null picks the dimension rule's value
        if raw.get(field) is not None:
            _integer(raw[field], field, 1)
    split_fraction = _number(raw.get("split_fraction", ExperimentSpec.split_fraction),
                             "split_fraction")
    _require(0.0 < split_fraction < 1.0, "split_fraction", "must be in (0,1)")
    reg = _number(raw.get("reg", ExperimentSpec.reg), "reg")
    _require(reg >= 0.0, "reg", "must be nonnegative")
    delta = _number(raw.get("delta", ExperimentSpec.delta), "delta")
    _require(0.0 < delta < 1.0, "delta", f"must be in (0,1), got {delta}")
    seeds = raw.get("seeds", list(ExperimentSpec.seeds))
    _require(isinstance(seeds, list) and seeds, "seeds", "need a nonempty list of seeds")
    seeds = tuple(_integer(s, "seeds") for s in seeds)
    _require(len(set(seeds)) == len(seeds), "seeds", "must be distinct")

    return ExperimentSpec(
        datasets=datasets, losses=losses, algorithms=algorithms,
        workers=workers, batch_size=batch_size, local_iters=raw.get("local_iters"),
        epochs=raw.get("epochs"), split_fraction=split_fraction, reg=reg, delta=delta,
        seeds=seeds, out_dir=str(raw.get("out_dir", ExperimentSpec.out_dir)),
    )


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return _build_spec(raw)


def _apply_overrides(raw: dict, pairs: list[str]) -> dict:
    """Apply --set KEY=VALUE overrides; dotted keys descend, integers index lists."""
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = key.split(".")
        try:
            for part in parts[:-1]:
                node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
            if isinstance(node, list):
                node[int(parts[-1])] = value
            else:
                node[parts[-1]] = value
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"--set path {key!r} does not fit the experiment file: {exc}") from exc
    return raw


def _load_dataset(ds: DatasetSpec) -> Dataset:
    if ds.synthetic is not None:
        return synth_dataset(ds.synthetic, ds.n, ds.examples, RngStream(ds.seed, "synth"))
    return parse_libsvm(ds.path, n_features=ds.n_features, label_threshold=ds.label_threshold)


def _dimension_rule(n: int, spec: ExperimentSpec) -> tuple[int, int]:
    """Local iteration count and epoch budget, auto-scaled by dimension."""
    local_iters = spec.local_iters if spec.local_iters is not None else (100 if n <= 100 else 500)
    epochs = spec.epochs if spec.epochs is not None else (1000 if n <= 100 else 5000)
    return local_iters, epochs


@dataclass(frozen=True)
class _Cell:
    """One independent, seeded run of the matrix."""

    algo: AlgoSpec
    alpha: float
    seed: int
    train: Dataset
    test: Dataset
    loss: LossKind
    local_iters: int
    rounds: int
    instance: str


@dataclass(frozen=True)
class _Outcome:
    """What one step of the run left, in a form that pickles: its warnings as
    (category, message, filename, lineno), its result, and its failure message."""

    warnings: tuple
    result: object = None
    failure: str | None = None


def _run_cell(spec: ExperimentSpec, cell: _Cell, timing: bool):
    algo = cell.algo
    if algo.name == "des":
        model = MutationModel(_MODEL_NAMES[algo.model], cell.train.n_features, l=algo.mixture_size)
        cfg = DesConfig(
            workers=spec.workers, rounds=cell.rounds, local_iters=cell.local_iters,
            batch_size=spec.batch_size, alpha=cell.alpha, model=model, seed=cell.seed,
            beta=algo.beta, allow_unsafe_beta=algo.allow_unsafe_beta,
        )
        runner = run_des
    else:
        cfg = BaselineConfig(
            workers=spec.workers, rounds=cell.rounds, local_iters=cell.local_iters,
            batch_size=spec.batch_size, alpha=cell.alpha, seed=cell.seed,
        )
        runner = {
            "fed-zo-gd": run_fed_zo_gd,
            "fed-zo-sgd": run_fed_zo_sgd,
            "zo-signsgd": run_zo_signsgd,
            "es-csa": run_es_csa,
        }[algo.name]
    return runner(cfg, cell.train, cell.test, cell.loss, reg=spec.reg, timing=timing,
                  instance=cell.instance)


def _recorded(step) -> _Outcome:
    """Call step() with its warnings recorded and an exception kept as its message.

    The filters in force still apply, so a warning turned into an error fails the step.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            result, failure = step(), None
        except Exception as exc:
            result, failure = None, str(exc)
    return _Outcome(tuple((w.category, str(w.message), w.filename, w.lineno) for w in caught),
                    result, failure)


def _run_cells(spec: ExperimentSpec, cells: list, timing: bool) -> list:
    return [_recorded(lambda: _run_cell(spec, cell, timing)) for cell in cells]


def _run_dealt(spec: ExperimentSpec, cells: list, timing: bool, threads: int) -> list:
    """Every cell's outcome, in cell order, from up to `threads` processes.

    Worker k runs cells k, k+P, k+2P, ... for P processes. Worker 0 is the
    calling process; the others are forked children that send their share's
    outcomes back over a one-way pipe once it is done. A child that exits
    without reporting, or with a nonzero code, fails each cell of its share;
    the share of a child that could not be forked runs in the calling
    process. No child outlives this call.
    """
    procs = process_count(min(threads, len(cells)))
    outcomes: list = [None] * len(cells)

    def work(k, writer):
        writer.send(_run_cells(spec, cells[k::procs], timing))

    with forked(procs - 1, work) as children:
        outcomes[::procs] = _run_cells(spec, cells[::procs], timing)
        for k, (child, reader) in enumerate(children, 1):
            if child is None:
                outcomes[k::procs] = _run_cells(spec, cells[k::procs], timing)
                continue
            try:
                share = reader.recv()
            except (EOFError, OSError):
                share = None
            child.join()
            if share is None or child.exitcode != 0:
                lost = _Outcome((), failure=f"worker process {k} exited with code "
                                            f"{child.exitcode} before reporting its cells")
                share = [lost] * len(cells[k::procs])
            outcomes[k::procs] = share
    return outcomes


def _load_split(ds: DatasetSpec, spec: ExperimentSpec):
    """A dataset's train/test split, local iteration count and round count."""
    full = _load_dataset(ds)
    train, test = split_train_test(full, SplitSpec(spec.split_fraction, RngStream(ds.seed, "split")))
    local_iters, epochs = _dimension_rule(full.n_features, spec)
    per_round = spec.workers * local_iters * spec.batch_size
    rounds = (epochs * len(train)) // per_round
    if rounds == 0:
        warnings.warn(
            f"dataset {ds.name}: budget {epochs}x{len(train)} is below one round "
            f"({per_round} evaluations); emitting round-0 snapshots only"
        )
    return train, test, local_iters, rounds


def run_matrix(spec: ExperimentSpec, timing: bool = False, threads: int = 1) -> int:
    """Execute the full experiment cross-product and write metrics/profiles CSVs.

    The datasets load in the calling process. Their cells then run `threads`
    at a time (capped at the cell and CPU counts), dealt round-robin in spec
    order to the calling process and to forked worker processes. Each cell's
    warnings and failure are recorded where it ran and reissued here in spec
    order, so the CSVs, stdout and the FAILED lines do not depend on `threads`.

    Failures are reported and skipped. A dataset that fails to load is an
    input error and yields exit code 1; otherwise a failed cell yields 2.
    """
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    steps = []  # spec order: (name, a dataset's outcome) or (name, a cell)
    cells = []
    for ds in spec.datasets:
        loaded = _recorded(lambda: _load_split(ds, spec))
        steps.append((f"dataset {ds.name}", loaded))
        if loaded.failure is not None:
            continue
        train, test, local_iters, rounds = loaded.result
        for loss in spec.losses:
            instance = f"{ds.name}/{loss.value}"
            for algo in spec.algorithms:
                for alpha in algo.alphas:
                    for seed in spec.seeds:
                        name = f"{algo.name} alpha={alpha:g} on {instance} seed {seed}"
                        cells.append(_Cell(algo, alpha, seed, train, test, loss,
                                           local_iters, rounds, instance))
                        steps.append((name, cells[-1]))

    cell_outcomes = iter(_run_dealt(spec, cells, timing, threads))
    records = []
    failures: list[tuple[str, str]] = []
    bad_input = False
    registry: dict = {}  # one "default" warning per text and place, as a single process shows
    for name, step in steps:
        outcome = next(cell_outcomes) if isinstance(step, _Cell) else step
        for category, message, filename, lineno in outcome.warnings:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
        if outcome.failure is not None:
            failures.append((name, outcome.failure))
            bad_input = bad_input or not isinstance(step, _Cell)
        elif isinstance(step, _Cell):
            outcome.result.algorithm = _run_id(step.algo, step.alpha)
            records.append(outcome.result)

    metrics_path = out / "metrics.csv"
    write_metrics_csv(records, metrics_path)
    print(f"wrote {metrics_path} ({sum(len(r.rows) for r in records)} rows)")

    if records:
        try:
            curves = compute_profiles(records, spec.delta)
            write_profiles_csv(curves, out / "profiles.csv")
            print(f"wrote {out / 'profiles.csv'} ({len(curves)} curves)")
        except ValueError as exc:
            print(f"profiles skipped: {exc}")

    cells: dict[tuple[str, str], list] = {}
    for rec in records:
        cells.setdefault((rec.algorithm, rec.instance), []).append(rec)
    if cells:
        print(f"{'algo':24} {'instance':20} {'final train loss (median)'}")
        for (algo_id, instance), cell in sorted(cells.items()):
            agg = aggregate_runs(cell)
            print(f"{algo_id:24} {instance:20} {agg.train_loss_median[-1]:.6g}")

    for name, message in failures:
        print(f"FAILED {name}: {message}", file=sys.stderr)
    return 1 if bad_input else 2 if failures else 0


def _cmd_run(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    with open(args.spec, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    _require(isinstance(raw, dict), "experiment spec", f"expected an object, got {raw!r}")
    raw = _apply_overrides(raw, args.overrides)
    if args.out is not None:
        raw["out_dir"] = args.out
    return run_matrix(_build_spec(raw), timing=args.timing, threads=args.threads or 1)


def _cmd_profile(args) -> int:
    records = read_metrics_csv(args.metrics)
    curves = compute_profiles(records, args.delta)
    out = Path(args.out) if args.out else Path(args.metrics).with_name("profiles.csv")
    write_profiles_csv(curves, out)
    for curve in curves:
        tail = curve.breakpoints[-1] if curve.breakpoints else (float("inf"), 0.0)
        print(f"{curve.algorithm}: rho(1)={curve.rho_at(1.0):.3f}, "
              f"final rho={tail[1]:.3f} at tau={tail[0]:g}")
    print(f"wrote {out}")
    return 0


def _cmd_parse_check(args) -> int:
    dataset = parse_libsvm(args.file, label_threshold=args.label_threshold)
    positive = int((dataset.labels == 1.0).sum())
    print(f"ok: {len(dataset)} examples, {dataset.n_features} features, "
          f"{positive} positive / {len(dataset) - positive} negative")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="desopt",
        description="Distributed evolution-strategy experiments over sparse linear losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment spec")
    run_p.add_argument("spec", help="JSON experiment spec file")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a spec entry (dotted paths)")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--threads", type=int, default=None,
                       help="run up to N cells at a time in forked processes (default 1; "
                            "capped at the cell and CPU counts); outputs do not depend on N")
    run_p.add_argument("--timing", action="store_true",
                       help="record wall-clock times (breaks byte-reproducibility of CSVs)")

    prof_p = sub.add_parser("profile", help="compute performance profiles from a metrics CSV")
    prof_p.add_argument("metrics", help="metrics.csv produced by run")
    prof_p.add_argument("--delta", type=float, required=True, help="solved threshold in (0,1)")
    prof_p.add_argument("--out", default=None, help="output CSV (default: profiles.csv beside input)")

    chk_p = sub.add_parser("parse-check", help="validate a LIBSVM file")
    chk_p.add_argument("file")
    chk_p.add_argument("--label-threshold", type=float, default=None,
                       help="binarize labels by label > threshold when not already binary")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    commands = {"run": _cmd_run, "profile": _cmd_profile, "parse-check": _cmd_parse_check}
    try:
        return commands[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
