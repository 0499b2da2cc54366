"""Dataset plumbing: LIBSVM text parsing, train/test splits, worker partitions,
and synthetic generators for desk-scale experiments.

LIBSVM lines look like ``label idx:val idx:val ...`` with 1-based, strictly
increasing indices. Internally everything is 0-based.
"""
from __future__ import annotations

import gzip
import io
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .mutation import RngStream
from .objective import Dataset, index_dtype


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; the message names the offending line."""


def _open_text(source):
    if hasattr(source, "read"):
        return source, False
    path = Path(source)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8"), True
    return open(path, "r", encoding="utf-8"), True


def _map_labels(raw: list[float], threshold: float | None) -> list[int]:
    values = set(raw)
    if values <= {-1.0, 1.0}:
        return [int(v) for v in raw]
    if values <= {0.0, 1.0}:
        return [1 if v == 1.0 else -1 for v in raw]
    if threshold is None:
        raise LibsvmParseError(
            f"labels {sorted(values)[:6]} are neither {{-1,+1}} nor {{0,1}}; "
            "pass label_threshold to binarize them"
        )
    return [1 if v > threshold else -1 for v in raw]


# parse_libsvm keeps entries in typed arrays (8 bytes each, a fraction of boxed
# numbers) of _CHUNK_ROWS rows and merges them once. On a 29 MB file (2 vCPU Xeon,
# glibc), arrays grown by realloc to the whole file left peak RSS varying by up to
# 16 MB between runs; with 2048-row chunks the middle half of ten runs is < 1 MB.
_CHUNK_ROWS = 2048


def parse_libsvm(
    source,
    n_features: int | None = None,
    label_threshold: float | None = None,
) -> Dataset:
    """Parse LIBSVM-format text (path, .gz path, or open file) into a Dataset.

    Labels in {-1,+1} are kept; {0,1} maps to {-1,+1}; anything else requires
    ``label_threshold`` (label > threshold becomes +1). The dimension is the
    largest index seen unless ``n_features`` overrides it.
    """
    if label_threshold is not None and not math.isfinite(label_threshold):
        raise ValueError(f"label_threshold must be finite, got {label_threshold}")
    fh, owned = _open_text(source)
    raw_labels: list[float] = []
    indptr = array("q", [0])
    indices, values = array("q"), array("d")
    index_chunks, value_chunks = [indices], [values]
    try:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                raw_labels.append(float(tokens[0]))
            except ValueError:
                raise LibsvmParseError(f"line {lineno}: non-numeric label {tokens[0]!r}") from None
            if not math.isfinite(raw_labels[-1]):
                raise LibsvmParseError(f"line {lineno}: non-finite label {tokens[0]!r}")
            prev = 0
            for tok in tokens[1:]:
                part = tok.split(":", 1)
                if len(part) != 2:
                    raise LibsvmParseError(f"line {lineno}: expected idx:val, got {tok!r}")
                try:
                    i = int(part[0])
                    v = float(part[1])
                except ValueError:
                    raise LibsvmParseError(f"line {lineno}: non-numeric token {tok!r}") from None
                if i <= 0:
                    raise LibsvmParseError(f"line {lineno}: index {i} must be >= 1")
                if i <= prev:
                    raise LibsvmParseError(f"line {lineno}: indices not strictly increasing at {i}")
                if not math.isfinite(v):
                    raise LibsvmParseError(f"line {lineno}: non-finite value {tok!r}")
                prev = i
                indices.append(i - 1)
                values.append(v)
            indptr.append(indptr[-1] + len(tokens) - 1)
            if len(raw_labels) % _CHUNK_ROWS == 0:
                indices, values = array("q"), array("d")
                index_chunks.append(indices)
                value_chunks.append(values)
    finally:
        if owned:
            fh.close()
    if not raw_labels:
        raise LibsvmParseError("no examples found")
    labels = _map_labels(raw_labels, label_threshold)
    seen_max = max((int(np.asarray(c).max()) + 1 for c in index_chunks if c), default=0)
    n = seen_max if n_features is None else int(n_features)
    if n < max(seen_max, 1):
        raise ValueError(f"n_features={n_features} smaller than max index seen ({seen_max})")
    # merge in the index dtype csr_matrix would pick, so it keeps the arrays
    # instead of copying them, and free each chunk list once it is merged
    idx_dtype = index_dtype(n, indptr[-1])
    cols = np.concatenate(index_chunks, dtype=idx_dtype, casting="same_kind")
    del index_chunks, indices
    data = np.concatenate(value_chunks)
    del value_chunks, values
    matrix = sp.csr_matrix((data, cols, np.array(indptr, dtype=idx_dtype)), shape=(len(labels), n))
    return Dataset(matrix, labels)


def write_libsvm(dataset: Dataset, target) -> None:
    """Serialize a Dataset back to LIBSVM text (1-based indices, exact floats)."""
    fh, owned = (target, False) if hasattr(target, "write") else (open(target, "w", encoding="utf-8"), True)
    try:
        X = dataset.matrix
        for i, label in enumerate(dataset.labels):
            row = slice(X.indptr[i], X.indptr[i + 1])
            parts = [f"{int(label):+d}"]
            parts.extend(f"{j + 1}:{v:.17g}" for j, v in zip(X.indices[row], X.data[row]))
            fh.write(" ".join(parts) + "\n")
    finally:
        if owned:
            fh.close()


@dataclass(frozen=True)
class SplitSpec:
    """Seeded train/test split: |train| = round(train_fraction * N)."""

    train_fraction: float
    shuffle_stream: RngStream

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0,1), got {self.train_fraction}")


def split_train_test(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Shuffle with the configured stream and split into disjoint train/test sets."""
    if len(dataset) < 2:
        raise ValueError("need at least 2 examples to split")
    n = len(dataset)
    n_train = int(round(spec.train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise ValueError(
            f"train_fraction={spec.train_fraction} leaves an empty side for N={n}"
        )
    perm = spec.shuffle_stream.gen.permutation(n)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint worker shards covering the training set, balanced within one."""

    worker_shards: tuple[np.ndarray, ...]

    @property
    def num_workers(self) -> int:
        return len(self.worker_shards)

    def minibatch(self, worker: int, stream: RngStream, size: int) -> np.ndarray:
        """Row indices of a size-`size` draw, uniform with replacement, from one shard."""
        shard = self.worker_shards[worker]
        return shard[stream.gen.integers(0, len(shard), size=size)]


def partition_uniform(train: Dataset, num_workers: int, stream: RngStream) -> PartitionPlan:
    """Seeded shuffle then round-robin deal into num_workers shards."""
    n = len(train)
    if num_workers < 1:
        raise ValueError("need at least one worker")
    if num_workers > n:
        raise ValueError(f"cannot split {n} examples across {num_workers} workers")
    perm = stream.gen.permutation(n)
    shards = tuple(perm[i::num_workers] for i in range(num_workers))
    return PartitionPlan(worker_shards=shards)


class SynthKind(Enum):
    SEPARABLE_LINEAR = "separable"
    NOISY_LINEAR = "noisy"


def synth_dataset_with_truth(
    kind: SynthKind, n: int, num_examples: int, stream: RngStream
) -> tuple[Dataset, np.ndarray]:
    """Generate a sparse linear-model dataset and return the ground-truth weights.

    Features: each example has max(1, round(n/4)) distinct Gaussian entries.
    Labels: sign of the ground-truth margin (ties +1); NoisyLinear flips each
    label independently with probability 0.1.
    """
    if n < 1 or num_examples < 1:
        raise ValueError("n and num_examples must be >= 1")
    gen = stream.gen
    w_star = gen.standard_normal(n)
    nnz = max(1, round(0.25 * n))
    indices = np.empty((num_examples, nnz), dtype=np.int64)
    values = np.empty((num_examples, nnz))
    labels = np.empty(num_examples)
    for r in range(num_examples):
        idx = np.sort(gen.choice(n, size=nnz, replace=False))
        val = gen.standard_normal(nnz)
        indices[r], values[r] = idx, val
        labels[r] = 1.0 if val @ w_star[idx] >= 0.0 else -1.0
    if kind is SynthKind.NOISY_LINEAR:
        labels = np.where(gen.random(num_examples) < 0.1, -labels, labels)
    indptr = np.arange(num_examples + 1) * nnz
    matrix = sp.csr_matrix((values.reshape(-1), indices.reshape(-1), indptr), shape=(num_examples, n))
    return Dataset(matrix, labels), w_star


def synth_dataset(kind: SynthKind, n: int, num_examples: int, stream: RngStream) -> Dataset:
    dataset, _ = synth_dataset_with_truth(kind, n, num_examples, stream)
    return dataset
