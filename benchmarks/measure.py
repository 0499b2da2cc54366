"""Pure helpers for the benchmark: the tail percentile, output digests,
failure tallies and the machine description attached to every result."""
from __future__ import annotations

import bisect
import hashlib
import os
import platform
import resource
from dataclasses import dataclass, field
from pathlib import Path

# A tail percentile is only reported where at least this many samples lie
# beyond it, so one stray sample cannot set it.
MIN_BEYOND = 10

THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least MIN_BEYOND samples strictly above it."""

    value: float
    percentile: float
    beyond: int
    samples: int


def tail_percentile(samples) -> Tail:
    """Pick the tail from sorted samples.

    Start at the (MIN_BEYOND+1)-th largest sample and step down past ties
    until MIN_BEYOND samples lie strictly above it. The percentile is the
    share of samples at or below the value. With too few samples no such
    point exists; the maximum is returned with its (short) beyond count so a
    reader can see the tail is not resolved.
    """
    ordered = sorted(float(s) for s in samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for k in range(n - MIN_BEYOND - 1, -1, -1):
        beyond = n - bisect.bisect_right(ordered, ordered[k])
        if beyond >= MIN_BEYOND:
            return Tail(ordered[k], 100.0 * (n - beyond) / n, beyond, n)
    return Tail(ordered[-1], 100.0, 0, n)


def rows_digest(header, rows) -> str:
    """SHA-256 over metric rows with the wall_ms column dropped.

    Every other column is deterministic for a fixed seed, so the digest must
    repeat across reruns and thread counts while timings differ.
    """
    keep = [i for i, name in enumerate(header) if name != "wall_ms"]
    h = hashlib.sha256()
    for row in rows:
        h.update(("\x1f".join(str(row[i]) for i in keep) + "\n").encode("utf-8"))
    return h.hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails if any check on it fails."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    """CPUs this process may run on, as `nproc` reports them."""
    return len(os.sched_getaffinity(0))


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"


def machine() -> dict:
    """Where a result was measured, including the BLAS thread environment as found."""
    import numpy as np
    import scipy

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
    }
