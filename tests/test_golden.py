"""Golden digest over every algorithm's (config, rows).

The digest pins the exact float64 output of all seven algorithm ids on the
three losses, each run twice, plus evaluation-capped runs and odd-K runs
with two smoothing directions (also twice). A refactor of the round engine
that changes any number, any config entry or the round count fails here.
GOLDEN was last re-recorded when the logistic loss moved from np.logaddexp
to log1p(exp(-|a|)) + max(-a, 0) on numpy's vectorised exp and log1p, which
moves per-example losses by a few ulp.

The value was recorded on x86-64 (AVX-512) with numpy 2.4.6, scipy 1.17.1 and
OpenBLAS 0.3.31. Numpy's vectorised exp/log1p/tanh and BLAS dot products
may round differently on other CPUs and builds, so KERNEL_PROBE pins their output
on that machine too, and the digest is compared only where the probe matches.
Elsewhere, compute golden_digest() at the parent commit on the same machine.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from desopt import (
    BaselineConfig,
    DesConfig,
    LossKind,
    MutationKind,
    MutationModel,
    RngStream,
    SmoothingConfig,
    SynthKind,
    run_des,
    run_es_csa,
    run_fed_zo_gd,
    run_fed_zo_sgd,
    run_zo_signsgd,
    synth_dataset,
)

GOLDEN = "1c2d1be1e905a0f0e84dc86ab7c595dec8beefeb2d458253e81b846e73f9f1fc"
KERNEL_PROBE = "98759b1b2ead3de83191a4b4efcf5e71f4c7f74d6bf7a1139a726b64b26ef60f"

N = 6
ZO_RUNNERS = (run_fed_zo_gd, run_fed_zo_sgd, run_zo_signsgd)


def _des_cfg(kind, **kw):
    base = dict(workers=3, rounds=3, local_iters=4, batch_size=5, alpha=1.0,
                model=MutationModel(kind, N, l=2), seed=5, beta=0.5)
    base.update(kw)
    return DesConfig(**base)


def _base_cfg(**kw):
    base = dict(workers=3, rounds=3, local_iters=4, batch_size=5, alpha=0.5, seed=5)
    base.update(kw)
    return BaselineConfig(**base)


def _records():
    train = synth_dataset(SynthKind.NOISY_LINEAR, N, 90, RngStream(21, "synth"))
    test = synth_dataset(SynthKind.NOISY_LINEAR, N, 30, RngStream(22, "synth"))
    # population round(3*4*15 / 90) = 2 matches the 180-evaluation round
    csa_cfg = _base_cfg(batch_size=15)
    for loss in LossKind:
        for _ in range(2):
            for kind in MutationKind:
                yield run_des(_des_cfg(kind), train, test, loss)
            for runner in ZO_RUNNERS:
                yield runner(_base_cfg(), train, test, loss)
            yield run_es_csa(csa_cfg, train, test, loss)
    cap = 60  # one ZO or DES round costs 60 evaluations
    yield run_des(_des_cfg(MutationKind.MIXTURE_RADEMACHER, rounds=6, max_evals=cap + 1),
                  train, test, LossKind.LR)
    for runner in ZO_RUNNERS:
        yield runner(_base_cfg(rounds=6, max_evals=cap + 1), train, test, LossKind.NSVM)
    yield run_es_csa(dataclasses.replace(csa_cfg, rounds=6, max_evals=200),
                     train, test, LossKind.LSVM)
    odd = SmoothingConfig(mu=1e-4, directions=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # odd-K forfeit notice
        for runner in ZO_RUNNERS:
            for _ in range(2):
                yield runner(_base_cfg(local_iters=5), train, test, LossKind.LR, smoothing=odd)


def golden_digest() -> str:
    h = hashlib.sha256()
    for rec in _records():
        rows = [dataclasses.astuple(row) for row in rec.rows]
        h.update(json.dumps([rec.algorithm, rec.seed, rec.config, rows],
                            sort_keys=True).encode())
    return h.hexdigest()


def kernel_probe() -> str:
    """Digest of the platform-dependent float64 kernels the runs call."""
    z = np.linspace(-30.0, 30.0, 4097)
    m = np.cos(np.arange(4097.0 * 8)).reshape(8, 4097)
    parts = [np.exp(z), np.log1p(np.exp(-np.abs(z))), np.tanh(z), m @ z, m[0] @ z, m[:2, :6] @ z[:6],
             np.linalg.norm(z), np.array([math.exp(v / 10.0) for v in z])]
    return hashlib.sha256(b"".join(np.asarray(p).tobytes() for p in parts)).hexdigest()


def test_golden_digest_of_all_algorithms():
    if kernel_probe() != KERNEL_PROBE:
        pytest.skip("float64 kernels round differently here than where GOLDEN was recorded")
    assert golden_digest() == GOLDEN
