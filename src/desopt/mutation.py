"""Seeded random streams and the mutation distributions that drive the search.

Mutation vectors come from one of three probability models: dense standard
Gaussian, or one of two sparse mixture schemes that perturb ``l`` randomly
chosen coordinates (with replacement) and scale by sqrt(n/l) so the covariance
stays the identity.
"""
from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np


def _key_word(part) -> int:
    """Map one stream-key component to a 32-bit word (strings are crc32'd)."""
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    word = int(part)
    if word < 0:
        raise ValueError(f"stream key components must be nonnegative, got {part!r}")
    return word


class RngStream:
    """A deterministic random stream keyed by (root_seed, *key).

    Uses the counter-based Philox generator seeded through SeedSequence, so
    streams with the same key replay identically and streams with distinct
    keys are statistically independent regardless of creation order.
    Typical key shape is (round, worker, purpose).
    """

    def __init__(self, root_seed: int, *key):
        self.root_seed = int(root_seed) & 0xFFFFFFFFFFFFFFFF
        self.key = tuple(key)
        words = tuple(_key_word(part) for part in key)
        seq = np.random.SeedSequence(self.root_seed, spawn_key=words)
        self.gen = np.random.Generator(np.random.Philox(seq))

    def __repr__(self) -> str:
        return f"RngStream(root_seed={self.root_seed}, key={self.key})"


class MutationKind(Enum):
    STANDARD_GAUSSIAN = "gaussian"
    MIXTURE_GAUSSIAN = "mixture_gaussian"
    MIXTURE_RADEMACHER = "mixture_rademacher"


@dataclass(frozen=True)
class MutationModel:
    """Which mutation distribution a worker uses.

    ``l`` is the number of perturbed coordinates for the mixture kinds and is
    ignored for the dense Gaussian. Mixture terms are scaled by sqrt(n/l).
    """

    kind: MutationKind
    n: int
    l: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.l < 1:
            raise ValueError(f"mixture size must be >= 1, got {self.l}")

    @property
    def is_mixture(self) -> bool:
        return self.kind is not MutationKind.STANDARD_GAUSSIAN

    @functools.cached_property
    def scale(self) -> float:
        return float(np.sqrt(self.n / self.l))


def draw_terms(model: MutationModel, gen,
               count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw the raw terms of one mixture sample: (indices, scaled values).

    Indices are drawn uniformly with replacement, so duplicates may appear;
    the sample is their additive accumulation. O(l) work, independent of n.
    With count, draws a block of count samples in one call: both arrays have
    shape (count, l), row k holding sample k (all indices are drawn before
    all values, so the block differs from count one-sample draws).
    """
    if not model.is_mixture:
        raise ValueError("draw_terms is only defined for mixture models")
    shape = model.l if count is None else (count, model.l)
    idx = gen.integers(0, model.n, size=shape)
    if model.kind is MutationKind.MIXTURE_GAUSSIAN:
        z = gen.standard_normal(shape)
    else:
        z = gen.integers(0, 2, size=shape) * 2.0 - 1.0
    return idx, model.scale * z
