"""Seeded workload inputs for the benchmark, written once per seed and reused.

`python3 benchmarks/gen.py --seed N --out DIR` writes ``sparse.libsvm`` (the
des-sparse-mixture data) and ``cli-spec.json`` (the cli-matrix experiment)
into DIR. The benchmark runs this in a child process, outside every timed
region, so neither the generation time nor its memory shows in a result.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

SPARSE_ROWS = 20_000
SPARSE_FEATURES = 20_000
SPARSE_NNZ_PER_ROW = 60
ZIPF_EXPONENT = 0.8
LABEL_NOISE = 0.05

SPARSE_FILE = "sparse.libsvm"
CLI_SPEC_FILE = "cli-spec.json"


def sparse_dataset(seed: int):
    """Sparse linear-model data with Zipf-like column popularity.

    Row lengths are Poisson(SPARSE_NNZ_PER_ROW); each entry picks its column
    from a Zipf(0.8) law over a seeded permutation of the columns, and
    repeated picks within a row collapse to one entry. Labels are the sign of a hidden
    Gaussian model's margin, each flipped with probability LABEL_NOISE.
    """
    from desopt import Dataset, RngStream

    rows, features = SPARSE_ROWS, SPARSE_FEATURES
    gen = RngStream(seed, "bench", "sparse").gen
    counts = np.maximum(gen.poisson(SPARSE_NNZ_PER_ROW, size=rows), 1)
    popularity = np.arange(1, features + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = np.cumsum(popularity) / popularity.sum()
    ranks = np.minimum(np.searchsorted(cdf, gen.random(int(counts.sum())), side="right"), features - 1)
    cols = gen.permutation(features)[ranks]
    keys = np.unique(np.repeat(np.arange(rows, dtype=np.int64), counts) * features + cols)
    row_of, col_of = np.divmod(keys, features)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=rows))))
    values = gen.standard_normal(len(keys))
    matrix = sp.csr_matrix((values, col_of, indptr), shape=(rows, features))
    w_star = gen.standard_normal(features)
    labels = np.where(matrix @ w_star >= 0.0, 1.0, -1.0)
    labels[gen.random(rows) < LABEL_NOISE] *= -1.0
    return Dataset(matrix, labels)


def cli_spec(seed: int) -> dict:
    """The cli-matrix experiment: six algorithm entries, two losses, two seeds.

    M=4, b=1000, K=20 and 200 epochs over 16k training rows give 40 rounds
    per cell and a budget-matched es-csa population of 5.
    """
    return {
        "datasets": [{"name": "noisy100", "synthetic": "noisy", "n": 100,
                      "examples": 20_000, "seed": seed}],
        "losses": ["LR", "NSVM"],
        "algorithms": [
            {"name": "des", "alpha": [1.0], "model": "gaussian"},
            {"name": "des", "alpha": [1.0], "model": "mixture_rademacher", "l": 8},
            {"name": "fed-zo-gd", "alpha": [0.1]},
            {"name": "fed-zo-sgd", "alpha": [0.1]},
            {"name": "zo-signsgd", "alpha": [0.01]},
            {"name": "es-csa", "alpha": [1.0]},
        ],
        "workers": 4,
        "batch_size": 1000,
        "local_iters": 20,
        "epochs": 200,
        "seeds": [seed, seed + 1],
    }


def write_inputs(seed: int, out: Path) -> None:
    """Write both input files; each appears under its final name only when complete."""
    from desopt import write_libsvm

    out.mkdir(parents=True, exist_ok=True)
    tmp = out / (SPARSE_FILE + ".tmp")
    write_libsvm(sparse_dataset(seed), tmp)
    os.replace(tmp, out / SPARSE_FILE)
    tmp = out / (CLI_SPEC_FILE + ".tmp")
    tmp.write_text(json.dumps(cli_spec(seed), indent=1), encoding="utf-8")
    os.replace(tmp, out / CLI_SPEC_FILE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_inputs(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
