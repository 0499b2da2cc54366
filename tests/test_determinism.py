"""Results do not depend on the BLAS library's thread count.

OpenBLAS splits a long dot product across its threads and sums the parts in
a different order for a different thread count, so any BLAS reduction on a
long vector can change the last bits of a result. Each test runs the same
work in two child processes, one with OPENBLAS_NUM_THREADS=1 and one with 2,
and compares their output exactly.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REG_TERMS = """
import numpy as np
from desopt import LossKind, RegularizedObjective, RngStream, SynthKind, synth_dataset
obj = RegularizedObjective(LossKind.LR, synth_dataset(SynthKind.NOISY_LINEAR, 4, 8, RngStream(0, "synth")), 0.1)
gen = RngStream(1, "vectors").gen
print([obj._reg_term(gen.normal(size=100_000) * 10.0 ** e) for e in range(-3, 4)])
"""

RUN = """
import sys
from desopt.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_child(args, blas_threads: str, cwd) -> str:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_reg_term_ignores_blas_threads(tmp_path):
    one, two = (run_child([REG_TERMS], threads, tmp_path) for threads in ("1", "2"))
    assert one == two


def test_metrics_csv_ignores_blas_threads(tmp_path):
    # n = 20000: long enough that OpenBLAS threads a dot product
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "datasets": [{"name": "wide", "synthetic": "noisy", "n": 20_000, "examples": 300, "seed": 2}],
        "algorithms": [{"name": "des", "alpha": [1.0]},
                       {"name": "des", "alpha": [1.0], "model": "mixture_gaussian", "l": 8},
                       {"name": "fed-zo-sgd", "alpha": [0.1]}],
        "workers": 2, "batch_size": 20, "local_iters": 10, "epochs": 3, "seeds": [0, 1],
        # a large regularizer keeps the last bits of |x|^2 visible in train_loss
        "reg": 1.0,
    }), encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        run_child([RUN, "run", str(spec), "--out", str(out)], threads, tmp_path)
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]
