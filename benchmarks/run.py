"""desopt benchmark: one workload per invocation, printed as one JSON line.

    python3 benchmarks/run.py --workload des-sparse-mixture --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; desopt is imported from its ``src``.
With ``--trace 0`` the workload's operation runs back to back, untraced, for
``--seconds`` and the end-to-end metrics are reported. With ``--trace 1`` the
seconds are split in three: the same operation runs untraced, then traced at
the workload's thread count, then traced at the other thread count (1 or
nproc), and the per-layer metrics are reported. Every operation is checked,
and a failed check counts the operation as failed. Generated inputs are cached per
seed under ``.bench_cache/``; full results and spans go to ``.bench_out/``.
The BLAS thread environment is left as found.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROBE_REPEATS = 5

# The end-to-end metrics BENCHMARK.json bounds. The round percentiles are
# reported beside them but not bounded. On a 2-vCPU VM whose speed drifts
# between two levels up to 1.9x apart every 10-60 s, a median snaps to
# whichever level held for most of a run: over ten seeds round_ms.p50 spread
# (IQR/median) 0.26 on des-dense-small and round_ms.tail 0.48 on cli-matrix,
# wider than any allowed bound. For the same reason run_s and evals_per_s are
# means over the run's operations, which mix the levels in proportion
# (des-dense-small: 0.14 against 0.25 for the median).
END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "evals_per_s": "evals/s", "peak_rss_mb": "MB",
}
REPORTED_UNITS = {**END_TO_END_UNITS, "round_ms.p50": "ms", "round_ms.tail": "ms"}


def _import_desopt() -> None:
    """Import desopt from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "desopt" / "__init__.py").is_file():
        sys.exit(f"benchmark: no desopt sources under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import desopt

    if Path(desopt.__file__).resolve().parent != (src / "desopt").resolve():
        sys.exit(f"benchmark: imported desopt from {desopt.__file__}, not from {src}")


def _inputs(seed: int) -> Path:
    """Generated inputs for this seed, written by a child process on first use."""
    import gen

    path = CACHE / f"seed-{seed}"
    if not all((path / name).is_file() for name in (gen.SPARSE_FILE, gen.CLI_SPEC_FILE)):
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--seed", str(seed),
                        "--out", str(path)], check=True, timeout=600)
    return path


def _setup(workload):
    """Set up SETUP_REPEATS times; keep the last data and every duration."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        data = workload.setup()
        times.append(time.perf_counter() - start)
    return data, times


def _measure(workload, data, threads, seconds, label, tally, reference, recorder=None):
    """Run operations back to back for about `seconds`; at least one runs.

    Another operation starts only while at least half of the last one's
    duration remains, so a run overshoots by at most half an operation.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or deadline - time.perf_counter() >= ops[-1].wall_s / 2:
        if recorder is not None:
            recorder.run = f"{label}/{len(ops)}"
        op = workload.op(data, threads)
        if op.digest is not None:
            reference.setdefault("digest", op.digest)
            if op.digest != reference["digest"]:
                op.problems.append(f"{label} op {len(ops)}: metrics digest differs from the "
                                   f"first operation (threads={threads})")
        tally.record(op.problems)
        ops.append(op)
    return ops


def _timed(ops):
    """Operations whose timings count: the passing ones, or all if none passed."""
    return [op for op in ops if not op.problems] or ops


def end_to_end(ops, setup_times) -> tuple[dict, dict]:
    from measure import peak_rss_mb, tail_percentile

    ops = _timed(ops)
    rounds = [ms for op in ops for ms in op.round_ms]
    tail = tail_percentile(rounds)
    walls = [op.wall_s for op in ops]
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.fmean(walls),
        "evals_per_s": sum(op.evals for op in ops) / sum(walls),
        "peak_rss_mb": peak_rss_mb(),
        "round_ms.p50": statistics.median(rounds),
        "round_ms.tail": tail.value,
    }
    extra = {"round_ms.tail.percentile": tail.percentile, "round_ms.tail.beyond": tail.beyond,
             "round_ms.samples": tail.samples, "operations": len(ops),
             "op_wall_s": walls}
    return values, extra


def mixture_vs_dense(data, batch_size, iters, step0, seed) -> float:
    """Per-iteration time of run_local_es with an l=8 Gaussian mixture over
    dense Gaussian mutations, on one minibatch of the workload's training data."""
    import numpy as np
    from desopt import LocalConfig, LossKind, MutationKind, MutationModel, RegularizedObjective, RngStream
    from desopt.localsolver import run_local_es
    train = data.train
    obj = RegularizedObjective(LossKind.LR, train)
    view = obj.batch(RngStream(seed, "bench", "probe").gen.integers(0, len(train), size=batch_size))
    x0 = np.zeros(train.n_features)
    f0 = view.peek_value(x0)
    times = defaultdict(list)
    for rep in range(PROBE_REPEATS):
        for kind in (MutationKind.MIXTURE_GAUSSIAN, MutationKind.STANDARD_GAUSSIAN):
            cfg = LocalConfig(iters=iters, model=MutationModel(kind, train.n_features, l=8), step0=step0)
            start = time.perf_counter()
            run_local_es(x0, cfg, view.value, RngStream(seed, "bench", "probe", rep),
                         f_start=f0, evals_per_call=batch_size)
            times[kind].append(time.perf_counter() - start)
    mixture, dense = (statistics.median(times[kind]) for kind in
                      (MutationKind.MIXTURE_GAUSSIAN, MutationKind.STANDARD_GAUSSIAN))
    return mixture / dense


PER_LAYER_UNITS = {
    "mutation.draw_terms.calls": "count", "mutation.draw_terms.us": "us",
    "objective.value.calls": "count", "objective.value.us": "us", "objective.value.share": "ratio",
    "objective.batch.calls": "count", "objective.batch.us": "us",
    "objective.loss_sum_many.us": "us",
    "objective.eval_full.us": "us", "objective.classification_error.us": "us",
    "localsolver.run_local_es.calls": "count", "localsolver.iter_us": "us",
    "localsolver.self.share": "ratio", "localsolver.mixture_vs_dense": "ratio",
    "localsolver.accept_ratio": "ratio",
    "server.des_round.ms": "ms", "server.des_round.self.share": "ratio",
    "server.aggregate.us": "us", "server.snapshot.share": "ratio",
    "server.thread_speedup": "ratio",
    "baselines.zo_grad_central.calls": "count", "baselines.zo_grad_central.us": "us",
    "dataio.parse_libsvm.s": "s", "dataio.parse_libsvm.mb_per_s": "MB/s",
    "dataio.synth_dataset.s": "s", "dataio.split_train_test.ms": "ms",
    "dataio.partition_uniform.ms": "ms",
    "bench.write_metrics_csv.ms": "ms", "bench.compute_profiles.ms": "ms",
    "cli.run_matrix.self.share": "ratio",
    "trace.overhead": "ratio",
}


def per_layer(spans, searches, *, setup_label, main_label, root, source_bytes,
              untraced_run_s, traced_run_s, thread_speedup, probe) -> dict:
    """Per-layer metrics from the set-up spans and the main traced phase.

    A `.share` is the wall time covered by at least one span of the layer,
    over the time of the operations' root spans; pool threads overlap, so
    summing their durations would overcount. Layers a workload never calls
    report zero calls and zero time.
    """
    from tracing import covered, self_times

    def phase(span, label):
        return span.run.startswith(label + "/")

    main = [s for s in spans if phase(s, main_label)]
    by_name = defaultdict(list)
    for s in main + [s for s in spans if phase(s, setup_label)]:
        by_name[s.name].append(s)
    selfs = self_times(main)
    root_time = sum(s.duration for s in main if s.name == root and s.parent is None)

    def calls(name):
        return len(by_name[name])

    def mean(name, scale):
        group = by_name[name]
        return scale * sum(s.duration for s in group) / len(group) if group else 0.0

    def share(*names):
        return covered((s.start, s.end) for n in names for s in by_name[n]) / root_time

    def self_share(name):
        group = by_name[name]
        total = sum(s.duration for s in group)
        return sum(selfs[s.sid] for s in group) / total if total else 0.0

    rounds = calls("server.des_round")
    searches = [(acc, it) for run, acc, it in searches if run.startswith(main_label + "/")]
    iters = sum(it for _, it in searches)
    parse_s = mean("dataio.parse_libsvm", 1.0)
    return {
        "mutation.draw_terms.calls": calls("mutation.draw_terms"),
        "mutation.draw_terms.us": mean("mutation.draw_terms", 1e6),
        "objective.value.calls": calls("objective.value"),
        "objective.value.us": mean("objective.value", 1e6),
        "objective.value.share": share("objective.value"),
        "objective.batch.calls": calls("objective.batch"),
        "objective.batch.us": mean("objective.batch", 1e6),
        "objective.loss_sum_many.us": mean("objective.loss_sum_many", 1e6),
        "objective.eval_full.us": mean("objective.eval_full", 1e6),
        "objective.classification_error.us": mean("objective.classification_error", 1e6),
        "localsolver.run_local_es.calls": calls("localsolver.run_local_es"),
        "localsolver.iter_us": (1e6 * sum(s.duration for s in by_name["localsolver.run_local_es"])
                                / iters if iters else 0.0),
        "localsolver.self.share": self_share("localsolver.run_local_es"),
        "localsolver.mixture_vs_dense": probe,
        "localsolver.accept_ratio": sum(acc for acc, _ in searches) / iters if iters else 0.0,
        "server.des_round.ms": mean("server.des_round", 1e3),
        "server.des_round.self.share": self_share("server.des_round"),
        "server.aggregate.us": (1e6 * sum(s.duration for n in ("server.average_displacement",
                                                               "server.momentum_update")
                                          for s in by_name[n]) / rounds if rounds else 0.0),
        "server.snapshot.share": share("objective.eval_full", "objective.classification_error"),
        "server.thread_speedup": thread_speedup,
        "baselines.zo_grad_central.calls": calls("baselines.zo_grad_central"),
        "baselines.zo_grad_central.us": mean("baselines.zo_grad_central", 1e6),
        "dataio.parse_libsvm.s": parse_s,
        "dataio.parse_libsvm.mb_per_s": source_bytes / 1e6 / parse_s if parse_s else 0.0,
        "dataio.synth_dataset.s": mean("dataio.synth_dataset", 1.0),
        "dataio.split_train_test.ms": mean("dataio.split_train_test", 1e3),
        "dataio.partition_uniform.ms": mean("dataio.partition_uniform", 1e3),
        "bench.write_metrics_csv.ms": mean("bench.write_metrics_csv", 1e3),
        "bench.compute_profiles.ms": mean("bench.compute_profiles", 1e3),
        "cli.run_matrix.self.share": self_share("cli.run_matrix"),
        "trace.overhead": traced_run_s / untraced_run_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="desopt benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("des-sparse-mixture", "des-dense-small", "cli-matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_desopt()
    from measure import Tally, machine, nproc
    from tracing import Recorder, installed
    from workloads import WORKLOADS

    inputs = _inputs(args.seed)
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](args.seed, inputs, nproc(), OUT / f"{run_name}-cli")
    tally = Tally()
    reference: dict = {}
    recorder = Recorder()

    if args.trace:
        with installed(recorder):
            recorder.run = "setup/0"
            data, setup_times = _setup(workload)
    else:
        data, setup_times = _setup(workload)
    workload.warmup(data, workload.threads)
    phase_s = args.seconds / 3 if args.trace else args.seconds
    ops = _measure(workload, data, workload.threads, phase_s, "untraced", tally, reference)
    e2e, extra = end_to_end(ops, setup_times)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "threads": workload.threads}

    if args.trace:
        main_label, other_label = "traced", "traced-other"
        with installed(recorder):
            traced = _measure(workload, data, workload.threads, phase_s, main_label,
                              tally, reference, recorder)
            recorder.run = "warmup/0"
            workload.warmup(data, workload.other_threads)
            _measure(workload, data, workload.other_threads, phase_s, other_label,
                     tally, reference, recorder)
        batch_size, iters, step0 = workload.probe_params()
        probe = mixture_vs_dense(data, batch_size, iters, step0, args.seed)
        round_s = {
            threads: statistics.median([s.duration for s in recorder.spans
                             if s.name == "server.des_round" and s.run.startswith(label + "/")])
            for threads, label in ((workload.other_threads, other_label),
                                   (workload.threads, main_label))
        }
        metrics = per_layer(
            recorder.spans, recorder.searches, setup_label="setup", main_label=main_label,
            root=workload.root,
            source_bytes=data.source_bytes, untraced_run_s=e2e["run_s"],
            traced_run_s=statistics.fmean([op.wall_s for op in _timed(traced)]),
            thread_speedup=round_s[1] / round_s[nproc()], probe=probe)
        units = PER_LAYER_UNITS
    else:
        metrics = {name: e2e[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    result.update(metrics=metrics, end_to_end=e2e, end_to_end_extra=extra,
                  failed_frac=tally.failed_frac, attempted=tally.attempted,
                  failed=tally.failed, problems=tally.problems)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{run_name}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if args.trace:
        with open(OUT / f"{run_name}.spans.jsonl", "w", encoding="utf-8") as fh:
            for s in recorder.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.run, s.thread]) + "\n")

    print(f"{args.workload} seed={args.seed} threads={workload.threads} "
          f"nproc={result['machine']['nproc']} operations={extra['operations']}")
    for name, value in e2e.items():
        print(f"  {name:16} {value:14.6g} {REPORTED_UNITS[name]}")
    print(f"  {'':16} tail = p{extra['round_ms.tail.percentile']:.2f} of "
          f"{extra['round_ms.samples']} rounds, {extra['round_ms.tail.beyond']} beyond")
    print(f"  {'failed_frac':16} {tally.failed_frac:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:36} {value:14.6g} {units[name]}")
    print(f"  machine: {json.dumps(result['machine'])}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
