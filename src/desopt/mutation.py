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


def draw_terms(model: MutationModel, gen) -> tuple[np.ndarray, np.ndarray]:
    """Draw the raw terms of one mixture sample: (indices, scaled values).

    Indices are drawn uniformly with replacement, so duplicates may appear;
    the sample is their additive accumulation. O(l) work, independent of n.
    """
    if not model.is_mixture:
        raise ValueError("draw_terms is only defined for mixture models")
    idx = gen.integers(0, model.n, size=model.l)
    if model.kind is MutationKind.MIXTURE_GAUSSIAN:
        z = gen.standard_normal(model.l)
    else:
        z = gen.integers(0, 2, size=model.l) * 2.0 - 1.0
    return idx, model.scale * z


def draw_dense(model: MutationModel, gen) -> np.ndarray:
    """Draw one mutation vector as a dense length-n array."""
    if model.kind is MutationKind.STANDARD_GAUSSIAN:
        return gen.standard_normal(model.n)
    idx, vals = draw_terms(model, gen)
    u = np.zeros(model.n)
    np.add.at(u, idx, vals)
    return u


def sample(model: MutationModel, stream: RngStream) -> np.ndarray:
    """Sample one mutation vector u from the model using the given stream."""
    return draw_dense(model, stream.gen)


def _sample_block(model: MutationModel, gen, count: int) -> np.ndarray:
    """Vectorized batch of samples, shape (count, n). Oracle-side helper."""
    if model.kind is MutationKind.STANDARD_GAUSSIAN:
        return gen.standard_normal((count, model.n))
    idx = gen.integers(0, model.n, size=(count, model.l))
    if model.kind is MutationKind.MIXTURE_GAUSSIAN:
        z = gen.standard_normal((count, model.l))
    else:
        z = gen.integers(0, 2, size=(count, model.l)) * 2.0 - 1.0
    u = np.zeros((count, model.n))
    rows = np.arange(count)[:, None]
    np.add.at(u, (rows, idx), model.scale * z)
    return u


@dataclass(frozen=True)
class MomentEstimate:
    """Monte-Carlo moment estimates with the fourth moment's standard error."""

    var_diag: np.ndarray
    fourth_moment: float
    fourth_moment_se: float
    num_samples: int


def empirical_moments(
    model: MutationModel,
    stream: RngStream,
    y: np.ndarray,
    num_samples: int,
    block: int = 100_000,
) -> MomentEstimate:
    """Estimate per-coordinate Var[u_i] and E[|y^T u|^4] by Monte Carlo.

    Test-suite oracle for the closed-form moments of the mutation models.
    The standard error of the fourth-moment estimate is returned so
    tolerances can be expressed in standard-error units.
    """
    if num_samples < 10_000:
        raise ValueError("moment estimation needs at least 1e4 samples")
    y = np.asarray(y, dtype=float)
    if y.shape != (model.n,):
        raise ValueError(f"probe vector must have shape ({model.n},)")

    s1 = np.zeros(model.n)
    s2 = np.zeros(model.n)
    m4_sum = 0.0
    m8_sum = 0.0
    done = 0
    while done < num_samples:
        count = min(block, num_samples - done)
        u = _sample_block(model, stream.gen, count)
        s1 += u.sum(axis=0)
        s2 += (u * u).sum(axis=0)
        proj = u @ y
        p4 = proj**4
        m4_sum += p4.sum()
        m8_sum += (p4 * p4).sum()
        done += count

    mean = s1 / num_samples
    var_diag = s2 / num_samples - mean**2
    m4 = m4_sum / num_samples
    m8 = m8_sum / num_samples
    se = float(np.sqrt(max(m8 - m4 * m4, 0.0) / num_samples))
    return MomentEstimate(var_diag, float(m4), se, num_samples)


def empirical_covariance(
    model: MutationModel, stream: RngStream, num_samples: int, block: int = 100_000
) -> np.ndarray:
    """Full empirical covariance matrix of the model, for the V[u] = I check."""
    if num_samples < 10_000:
        raise ValueError("covariance estimation needs at least 1e4 samples")
    s1 = np.zeros(model.n)
    outer = np.zeros((model.n, model.n))
    done = 0
    while done < num_samples:
        count = min(block, num_samples - done)
        u = _sample_block(model, stream.gen, count)
        s1 += u.sum(axis=0)
        outer += u.T @ u
        done += count
    mean = s1 / num_samples
    return outer / num_samples - np.outer(mean, mean)


def fourth_moment_closed_form(model: MutationModel, y: np.ndarray) -> float:
    """Closed-form E[|y^T u|^4] for each mutation model.

    Standard Gaussian projections are N(0, ||y||^2), fourth moment 3||y||_2^4.
    The mixture models interpolate between the one-coordinate and the dense
    regime through (n/l)||y||_4^4 and ((l-1)/l)||y||_2^4 terms.
    """
    y = np.asarray(y, dtype=float)
    y2 = float(np.sum(y**2)) ** 2
    y4 = float(np.sum(y**4))
    if model.kind is MutationKind.STANDARD_GAUSSIAN:
        return 3.0 * y2
    ratio = model.n / model.l
    rest = (model.l - 1) / model.l
    if model.kind is MutationKind.MIXTURE_GAUSSIAN:
        return 3.0 * (ratio * y4 + rest * y2)
    return ratio * y4 + 3.0 * rest * y2
