"""Dataset plumbing: LIBSVM text parsing, train/test splits, worker partitions,
and synthetic generators for desk-scale experiments.

LIBSVM lines look like ``label idx:val idx:val ...`` with 1-based, strictly
increasing indices. Internally everything is 0-based.

parse_libsvm reads its text in sections cut after a newline. A section spelled
the usual way (digits, signs, points, exponents, colons, spaces, tabs) is
parsed by whole-array numpy passes. Any other section, and any section that
fails one of their checks, goes through the token-by-token line loop: it is the
reference for what Python's int and float accept, and it words every error,
naming the line.

A plain file is cut into byte ranges, one per usable CPU, each cut just after a
newline. The calling process parses the first range and a forked child each
other one; a small file is one range, parsed in the calling process. A .gz file
is inflated once, into memory, and its text parsed as an open file's is: in one
range, in the calling process. A range a child could not parse is parsed again
in the calling process, so every error and line number is the one-range parse's.
"""
from __future__ import annotations

import codecs
import io
import math
import zlib
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .mutation import RngStream
from .objective import Dataset, index_dtype
from .processes import forked, process_count, recv_arrays, send_arrays


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; the message names the offending line."""


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


# parse_libsvm takes its text PARSE_CHUNK characters at a time. A first pass
# (a plain file is read twice; a .gz or open file is read into memory once)
# counts colons (one per entry) and newlines (one per row, but for a last row
# without one), so that the parse writes each section's rows into the final
# arrays. On a 29 MB file (2 vCPU Xeon, glibc), per-section arrays merged at
# the end peaked at 97 MB standalone RSS against 78.5 MB preallocated, with
# equal tracemalloc peaks: the difference is heap fragmentation. Sections of
# 256 KB were the fastest there.
# A plain file's byte ranges hold at least RANGE_SECTIONS sections each, so a
# small file never forks. Each child counts its range and sends the counts
# first; the calling process then allocates the final arrays, parses its own
# range into them, and receives each child's arrays straight into their slices
# (recv_arrays' `into`, read at most PIPE_BYTES at a time), so it never
# holds a second copy.
PARSE_CHUNK = 1 << 18
RANGE_SECTIONS = 4
# The bytes a section may hold for the vectorised parse to vouch for it: digits,
# signs, points, exponent letters, colons, and the three whitespace bytes it
# splits at. Anything else (a carriage return, an underscore, nan, non-ASCII
# text) sends the section to the line loop, which knows Python's whole number
# syntax and every error message.
_SECTION_BYTES = b"0123456789+-.eE: \t\n"
# At most 18 digits keep an index below 2**63, so its digits sum exactly in int64.
_INDEX_DIGITS = 18
_MAX_INDEX = np.iinfo(np.int64).max


def _sections(pieces: Iterable[str]) -> Iterator[str]:
    """Join the text pieces into sections that end after a newline, but for the last."""
    held: list[str] = []
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            yield "".join(held) + piece[:cut]
            held = []
        held.append(piece[cut:])
    rest = "".join(held)
    if rest:
        yield rest


def _parse_lines(section: str, lineno: int):
    """Parse a section token by token, naming line numbers from `lineno` on.

    This is the reference parser: Python's int and float decide what a number
    is, and every LibsvmParseError message comes from here.
    """
    labels, lengths, indices, values = [], [], [], []
    for lineno, line in enumerate(section.split("\n"), start=lineno):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(f"line {lineno}: non-numeric label {tokens[0]!r}") from None
        if not math.isfinite(label):
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
            if i > _MAX_INDEX:
                raise LibsvmParseError(f"line {lineno}: index {i} out of range")
            if i <= prev:
                raise LibsvmParseError(f"line {lineno}: indices not strictly increasing at {i}")
            if not math.isfinite(v):
                raise LibsvmParseError(f"line {lineno}: non-finite value {tok!r}")
            prev = i
            indices.append(i - 1)
            values.append(v)
        labels.append(label)
        lengths.append(len(tokens) - 1)
    return labels, lengths, indices, values


def _parse_section(section: str):
    """Parse a section with whole-array passes, or return None when they cannot
    vouch for it, so that the line loop parses it and names the bad line.

    Each non-blank line's first token is its label and every other token is an
    entry. Indices come from their digits; labels and values from Python's
    float. The line loop's token checks hold because:
    - there are as many colons as entries, and only digits between the start
      of entry k and colon k, so each entry holds one colon and no label does;
    - an index of no digits reads 0, which fails the check for >= 1;
    - an empty value leaves its entry without a number, one number short.
    """
    if not section.isascii():
        return None
    buf = section.encode("ascii")
    if buf.translate(None, _SECTION_BYTES):
        return None
    a = np.frombuffer(buf, np.uint8)
    gap = np.concatenate(([True], a <= 32, [True]))  # space, tab or newline
    starts = np.flatnonzero(gap[1:] != gap[:-1])[0::2]
    line = np.searchsorted(np.flatnonzero(a == 10), starts)  # of each token
    first = np.flatnonzero(np.diff(line, prepend=-1))  # each row's label token
    is_entry = np.ones(len(starts), bool)
    is_entry[first] = False
    lo = starts[is_entry]
    colons = np.flatnonzero(a == 58)
    if len(colons) != len(lo):
        return None
    width = colons - lo
    if (width > _INDEX_DIGITS).any():
        return None
    # `at` reaches back from each colon over the widest index; `inside` keeps
    # the bytes from the entry's start on (a negative position wraps to the
    # section's end, and is left out too)
    span = np.arange(-int(width.max(initial=0)), 0)
    at = colons[:, None] + span
    inside = at >= lo[:, None]
    digits = a[at] - np.uint8(48)  # a byte below "0" wraps above 9
    if (inside & (digits > 9)).any():
        return None
    index = (digits * inside) @ 10 ** -(span + 1)
    # with the indices and colons blanked, one number is left per token
    blank = a.copy()
    blank[at[inside]] = 32
    blank[colons] = 32
    try:
        numbers = np.fromiter(map(float, blank.tobytes().split()), np.float64)
    except ValueError:
        return None
    if len(numbers) != len(starts) or not np.isfinite(numbers).all() or not (index >= 1).all():
        return None
    row_start = np.zeros(len(index) + 1, bool)
    row_start[first - np.arange(len(first))] = True
    if not ((np.diff(index) > 0) | row_start[1:-1]).all():
        return None
    return numbers[first], np.diff(first, append=len(starts)) - 1, index - 1, numbers[is_entry]


def parse_libsvm(
    source,
    n_features: int | None = None,
    label_threshold: float | None = None,
) -> Dataset:
    """Parse LIBSVM-format text (path, .gz path, or open file) into a Dataset.

    Labels in {-1,+1} are kept; {0,1} maps to {-1,+1}; anything else requires
    ``label_threshold`` (label > threshold becomes +1). The dimension is the
    largest index seen unless ``n_features`` overrides it; a source whose rows
    are all label-only needs ``n_features``.
    """
    if label_threshold is not None and not math.isfinite(label_threshold):
        raise ValueError(f"label_threshold must be finite, got {label_threshold}")
    if hasattr(source, "read"):
        # the file's own line iteration says where its lines end
        text = "".join(line.rstrip("\r\n") + "\n" for line in source)
    elif (path := Path(source)).suffix == ".gz":
        with open(path, "rb") as fh:  # inflated once, into memory
            text = "".join(_decoded(_gunzipped(fh), 1))
    else:
        text = None
    read_range, cuts = ((partial(_file_range, path), _cuts(path)) if text is None
                        else (partial(_text_range, text), [0, len(text)]))
    raw_labels, indptr, cols, data = _parse_ranges(read_range, cuts)
    rows, nnz = len(raw_labels), len(cols)
    if not rows:
        raise LibsvmParseError("no examples found")
    labels = _map_labels(raw_labels.tolist(), label_threshold)
    if not nnz and n_features is None:
        raise LibsvmParseError("no row has a feature index, so the dimension is unknown; "
                               "pass n_features")
    seen_max = int(cols.max()) + 1 if nnz else 0
    n = seen_max if n_features is None else int(n_features)
    if n < 1:
        raise ValueError(f"n_features must be at least 1, got {n_features}")
    if n < seen_max:
        raise ValueError(f"n_features={n_features} smaller than max index seen ({seen_max})")
    # cast to the index dtype csr_matrix would pick, so it keeps the arrays
    idx_dtype = index_dtype(n, nnz)
    matrix = sp.csr_matrix(
        (data, cols.astype(idx_dtype, copy=False), indptr.astype(idx_dtype, copy=False)),
        shape=(rows, n),
    )
    return Dataset(matrix, labels)


@contextmanager
def _text_range(text: str, start: int, stop: int, lineno: int):
    """text[start:stop] in pieces."""
    yield (text[i:min(i + PARSE_CHUNK, stop)] for i in range(start, stop, PARSE_CHUNK))


@contextmanager
def _file_range(path: Path, start: int, stop: int, lineno: int):
    """The text of bytes [start, stop) of a plain file, in pieces, as open()
    in text mode reads it."""
    with open(path, "rb") as fh:
        fh.seek(start)
        yield _decoded(iter(lambda: fh.read(min(PARSE_CHUNK, stop - fh.tell())), b""), lineno)


def _gunzipped(fh) -> Iterator[bytes]:
    """A .gz file's decompressed bytes, member after member, in pieces of at
    most PARSE_CHUNK however far the data expands; zero bytes after a member
    are skipped, as gzip.open skips them. Corrupt data raises zlib.error, and
    a file cut short EOFError, once what it holds has been yielded."""
    data = b""
    while data := data or fh.read(PARSE_CHUNK):
        if not (data := data.lstrip(b"\0")):
            continue
        inflate = zlib.decompressobj(31)  # 31: a gzip header and trailer
        while not inflate.eof:
            fed = data or fh.read(PARSE_CHUNK)
            piece = inflate.decompress(fed, PARSE_CHUNK)
            if not (fed or piece):
                raise EOFError("Compressed file ended before the end-of-stream marker was reached")
            data = inflate.unconsumed_tail or inflate.unused_data
            if piece:
                yield piece


def _decoded(pieces: Iterator[bytes], lineno: int) -> Iterator[str]:
    """Byte pieces, none of them empty, decoded as UTF-8 with universal
    newlines, in pieces. A byte that is not UTF-8, or a .gz file cut short or
    corrupt, raises LibsvmParseError, naming its line counted from `lineno`."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), True)
    while True:
        try:
            data = next(pieces, b"")
            text = decoder.decode(data, final=not data)
        except (EOFError, zlib.error) as exc:  # the piece a zlib.error is found in is lost
            raise LibsvmParseError(f"line {lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            # a failed decode leaves the decoder as it was; exc.start counts its held bytes too
            held = len(decoder.getstate()[0])
            lineno += decoder.decode(data[:max(0, exc.start - held)]).count("\n")
            lineno += decoder.getstate()[1] & 1  # a carriage return it holds back
            raise LibsvmParseError(f"line {lineno}: {exc.object[exc.start:exc.end]!r} is not "
                                   f"UTF-8 text ({exc.reason})") from None
        lineno += text.count("\n")
        if text:
            yield text
        if not data:
            return


def _cuts(path: Path) -> list[int]:
    """Byte offsets that cut a plain file into ranges, one per process."""
    size = path.stat().st_size
    procs = process_count(size // (RANGE_SECTIONS * PARSE_CHUNK))
    cuts = [0]
    with open(path, "rb") as fh:
        for k in range(1, procs):
            at = max(cuts[-1], k * size // procs - 1)
            fh.seek(at)
            while (block := fh.read(PARSE_CHUNK)) and b"\n" not in block:
                at += len(block)
            if not block:
                break
            cut = at + block.index(b"\n") + 1
            if cut == size:
                break
            cuts.append(cut)
    return cuts + [size]


def _count(read_range, start, stop, lineno: int) -> tuple[int, int]:
    """The colons and newlines in a range's text."""
    colons = newlines = 0
    with read_range(start, stop, lineno) as pieces:
        for piece in pieces:
            colons += piece.count(":")
            newlines += piece.count("\n")
    return colons, newlines


def _parse_range(read_range, start, stop, lineno: int, labels, ends, cols, data):
    """Parse a range into the fronts of the given arrays, naming lines from
    `lineno` on: the labels, each row's end counted in entries from 0, and the
    entries' columns and values. Returns the fronts written."""
    rows = nnz = 0
    with read_range(start, stop, lineno) as pieces:
        for section in _sections(pieces):
            parsed = _parse_section(section) or _parse_lines(section, lineno)
            section_labels, lengths, indices, values = parsed
            row_end, nnz_end = rows + len(section_labels), nnz + len(indices)
            labels[rows:row_end] = section_labels
            ends[rows:row_end] = nnz + np.cumsum(lengths, dtype=np.int64)
            cols[nnz:nnz_end], data[nnz:nnz_end] = indices, values
            rows, nnz = row_end, nnz_end
            lineno += section.count("\n")
    return labels[:rows], ends[:rows], cols[:nnz], data[:nnz]


def _range_arrays(colons, newlines):
    """Labels, indptr, columns and values for the parse of text with these
    counts: a row per newline, and one more for a last row without one; an
    entry per colon."""
    return (np.empty(newlines + 1), np.zeros(newlines + 2, np.int64),
            np.empty(colons, np.int64), np.empty(colons))


def _parse_child(writer, read_range, start, stop) -> None:
    """A forked child's share: its range's counts, then its parse, each sent
    through send_arrays as soon as it is known. Lines are numbered from 1, so on any failure the child
    just exits, and the parent, reading EOF, counts or parses the range itself."""
    with suppress(Exception):
        counts = _count(read_range, start, stop, 1)
        send_arrays(writer, [np.array(counts)])
        labels, indptr, cols, data = _range_arrays(*counts)
        send_arrays(writer, _parse_range(read_range, start, stop, 1, labels, indptr[1:], cols, data))


def _parse_ranges(read_range, cuts: list):
    """The labels, indptr, columns and values of the text cut into ranges at
    `cuts`: the calling process parses the first range, a forked child each
    other one. A range that a child fails to count or parse is counted or
    parsed again here, in file order, so the first error in the file is raised
    with the line numbers of a one-range parse."""
    ranges = list(zip(cuts, cuts[1:]))
    with forked(len(ranges) - 1,
                lambda k, writer: _parse_child(writer, read_range, *ranges[k])) as children:
        counts = [_count(read_range, *ranges[0], 1)]
        for (start, stop), (_, reader) in zip(ranges[1:], children):
            try:
                counts.append(recv_arrays(reader)[0].tolist())
            except (EOFError, OSError):
                lineno = 1 + sum(newlines for _, newlines in counts)
                counts.append(_count(read_range, start, stop, lineno))
        labels, indptr, cols, data = _range_arrays(*np.sum(counts, axis=0))
        first = _parse_range(read_range, *ranges[0], 1, labels, indptr[1:], cols, data)
        rows, nnz, lineno = len(first[0]), len(first[2]), 1 + counts[0][1]
        for (start, stop), (_, reader), (_, newlines) in zip(ranges[1:], children, counts[1:]):
            into = labels[rows:], indptr[rows + 1:], cols[nnz:], data[nnz:]
            try:
                got = recv_arrays(reader, into)
            except (EOFError, OSError):
                got = _parse_range(read_range, start, stop, lineno, *into)
            got[1][:] += nnz  # the range's row ends, in place
            rows, nnz, lineno = rows + len(got[0]), nnz + len(got[2]), lineno + newlines
    return labels[:rows], indptr[:rows + 1], cols[:nnz], data[:nnz]


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


def synth_dataset(kind: SynthKind, n: int, num_examples: int, stream: RngStream) -> Dataset:
    """Generate a sparse linear-model dataset from ground-truth weights, the
    stream's first standard_normal(n).

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
    return Dataset(matrix, labels)
