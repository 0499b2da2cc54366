"""LIBSVM parsing/serialization, splits, partitions, synthetic generators."""
from __future__ import annotations

import gzip
import io
import multiprocessing
import os
import re
import time
import zlib
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from desopt import (
    Dataset,
    LibsvmParseError,
    LossKind,
    PartitionPlan,
    RegularizedObjective,
    RngStream,
    SplitSpec,
    SynthKind,
    classification_error,
    parse_libsvm,
    partition_uniform,
    split_train_test,
    synth_dataset,
    synth_dataset_with_truth,
    write_libsvm,
)
from desopt import dataio
from desopt.objective import index_dtype
from helpers import refuse_forks

SAMPLE = """+1 1:0.5 3:-2
-1 2:1.25
+1 4:1e-3
"""


def test_parse_basic():
    ds = parse_libsvm(io.StringIO(SAMPLE))
    assert len(ds) == 3
    assert ds.n_features == 4
    npt.assert_array_equal(ds.matrix.indptr, [0, 2, 3, 4])
    npt.assert_array_equal(ds.matrix.indices, [0, 2, 1, 3])  # 1-based input, 0-based storage
    npt.assert_allclose(ds.matrix.data, [0.5, -2.0, 1.25, 1e-3])
    npt.assert_array_equal(ds.labels, [1.0, -1.0, 1.0])


def test_parse_n_features_override_and_blank_lines():
    text = "+1 1:1\n\n-1 2:1\n"
    ds = parse_libsvm(io.StringIO(text), n_features=10)
    assert ds.n_features == 10
    assert len(ds) == 2
    with pytest.raises(ValueError, match=r"n_features=1 smaller than max index seen \(2\)"):
        parse_libsvm(io.StringIO(text), n_features=1)
    for data, n in (("+1\n", 0), ("+1\n", -2), (text, 0)):
        with pytest.raises(ValueError, match=f"n_features must be at least 1, got {n}"):
            parse_libsvm(io.StringIO(data), n_features=n)


def test_parse_zero_one_labels_map():
    ds = parse_libsvm(io.StringIO("0 1:1\n1 1:2\n0 2:3\n"))
    npt.assert_array_equal(ds.labels, [-1.0, 1.0, -1.0])


def test_parse_other_labels_need_threshold():
    text = "1 1:1\n2 1:1\n3 1:1\n"
    with pytest.raises(LibsvmParseError):
        parse_libsvm(io.StringIO(text))
    ds = parse_libsvm(io.StringIO(text), label_threshold=1.5)
    npt.assert_array_equal(ds.labels, [-1.0, 1.0, 1.0])
    for threshold in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="label_threshold must be finite"):
            parse_libsvm(io.StringIO(text), label_threshold=threshold)


def test_parse_errors_name_the_line():
    cases = [
        ("+1 1:1\nabc 1:1\n", "line 2"),
        ("+1 0:1\n", "line 1"),
        ("+1 2:1 2:2\n", "line 1"),  # repeated index
        ("+1 3:1 2:5\n", "line 1"),  # decreasing index
        ("+1 1:x\n", "line 1"),
        ("+1 1\n", "line 1"),
        ("+1 1:1\n-1 1:nan\n", "line 2"),
        ("+1 1:inf\n", "line 1"),
        ("+1 1:1\nnan 1:2\n", "line 2: non-finite label 'nan'"),
        ("inf 1:1\n", "line 1: non-finite label 'inf'"),
        ("+1 1:1\n-1 1:1\n-inf 1:3\n", "line 3: non-finite label '-inf'"),
        ("+1 99999999999999999999:1\n", "line 1: index 99999999999999999999 out of range"),
        ("+1 9223372036854775808:1\n", "line 1: index 9223372036854775808 out of range"),
    ]
    for text, needle in cases:
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(io.StringIO(text))
        assert needle in str(err.value)
    # a threshold would otherwise binarize nan to -1 and inf to +1
    with pytest.raises(LibsvmParseError, match="line 3: non-finite label 'nan'"):
        parse_libsvm(io.StringIO("1 1:1\n2 1:1\nnan 1:2\ninf 1:3\n"), label_threshold=1.5)


def test_parse_empty_input_rejected():
    with pytest.raises(LibsvmParseError):
        parse_libsvm(io.StringIO("\n\n"))


def test_parse_label_only_rows_need_n_features():
    with pytest.raises(LibsvmParseError, match="no row has a feature index.*n_features"):
        parse_libsvm(io.StringIO("+1\n-1\n"))
    ds = parse_libsvm(io.StringIO("+1\n-1\n"), n_features=3)
    assert ds.n_features == 3 and ds.matrix.nnz == 0
    npt.assert_array_equal(ds.labels, [1.0, -1.0])


def test_parse_gzip_path(tmp_path):
    path = tmp_path / "data.txt.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(SAMPLE)
    ds = parse_libsvm(path)
    assert len(ds) == 3
    assert ds.labels[0] == 1.0


def test_parse_truncated_gzip_names_the_line_reached(tmp_path, monkeypatch):
    # The stream loses its last 8 bytes (its CRC and size), so all 200 lines
    # decompress before the missing end-of-stream marker is noticed; the read
    # that notices it drops its piece, so the line named is at most one piece
    # (64 bytes, 7 of these lines or fewer) before line 201.
    path = tmp_path / "data.svm.gz"
    path.write_bytes(gzip.compress(b"".join(b"+1 1:%d\n" % i for i in range(1, 201)))[:-8])
    monkeypatch.setattr(dataio, "PARSE_CHUNK", 64)
    with pytest.raises(LibsvmParseError, match="Compressed file ended before") as err:
        parse_libsvm(path)
    assert 194 <= int(re.match(r"line (\d+): ", str(err.value))[1]) <= 201, err.value


def _corrupt(member: bytes) -> bytes:
    """A gzip member whose bytes 30-39, in its first deflate block, are 0xff."""
    return member[:30] + b"\xff" * 10 + member[40:]


@pytest.mark.parametrize("raw", [
    gzip.compress(b"+1 1:0.5\n" * 100)[:-12],
    gzip.compress(b"".join(b"+1 1:%d\n" % i for i in range(1, 301))) + _corrupt(
        gzip.compress(b"+1 1:0.5\n" * 1000)),
], ids=["cut short", "corrupt second member"])
def test_parse_damaged_gzip_names_the_line_after_its_whole_lines(tmp_path, raw):
    # zlib recovers the lines before the damage (of the first member alone
    # when the second is corrupt); the parse names the line after them
    path = tmp_path / "data.svm.gz"
    path.write_bytes(raw)
    line = zlib.decompressobj(31).decompress(raw).count(b"\n") + 1
    assert line > 1
    with pytest.raises(LibsvmParseError, match=f"^line {line}: "):
        parse_libsvm(path)


def test_parse_gzip_members_in_pieces_of_at_most_parse_chunk(tmp_path, monkeypatch):
    """Members and the zero bytes after them read as gzip.open reads them;
    a member that expands 300-fold still arrives in pieces of PARSE_CHUNK."""
    first, second = FILLER * 5000, "".join(f"-1 {i}:{i}.5\n" for i in range(1, 40))
    plain, packed = tmp_path / "data.svm", tmp_path / "data.svm.gz"
    plain.write_text(first + second)
    packed.write_bytes(gzip.compress(first.encode()) + b"\0" * 3 + gzip.compress(second.encode())
                       + b"\0" * 5)
    assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
    monkeypatch.setattr(dataio, "PARSE_CHUNK", 64)
    sizes, gunzipped = [], dataio._gunzipped
    monkeypatch.setattr(dataio, "_gunzipped", lambda fh: (
        sizes.append(len(piece)) or piece for piece in gunzipped(fh)))
    assert _outcome(packed) == _outcome(plain) and len(_outcome(plain)) > 2
    assert max(sizes) == 64 and sum(sizes) == 1 * len(first + second)  # inflated once


def test_parse_plain_path(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(SAMPLE, encoding="utf-8")
    assert len(parse_libsvm(path)) == 3


def test_write_parse_round_trip():
    stream = RngStream(77, "synth")
    ds = synth_dataset(SynthKind.NOISY_LINEAR, 12, 40, stream)
    buf = io.StringIO()
    write_libsvm(ds, buf)
    back = parse_libsvm(io.StringIO(buf.getvalue()), n_features=12)
    assert back == ds  # %.17g serialization is float-exact


def test_write_round_trip_file(tmp_path):
    ds = parse_libsvm(io.StringIO(SAMPLE))
    path = tmp_path / "out.txt"
    write_libsvm(ds, path)
    assert parse_libsvm(path, n_features=4) == ds


# label spellings by the threshold their mix needs: {-1,+1}, {0,1}, anything
LABELS = [(None, ("+1", "-1", "1", "-1.0", "+1e0", "01")),
          (None, ("0", "1", "0.0", "1.", "-0", "+0")),
          (0.5, ("2", "-7", "3.5", "1_0", "0"))]
ODD_VALUES = ["", "1.", ".5", "-.5e-3", "1E5", "1_000.5", "007", "0e0", "-0.0", "-0",
              "4.9406564584124654e-324", "1e-400", "1e400", "+1e+308"]
# one byte of damage: separators, line ends, digits and signs, and what only the
# line loop accepts or rejects (underscores, nan, inf, non-ASCII and other whitespace)
DAMAGE = list(":x\r\n \t-+.eE0915_naif\x00\x0b\x0c\x1c\x1f\x85\xa0\u2028\xe9")


@st.composite
def index_tokens(draw, i):
    digits = str(i)
    spellings = ["00" + digits, "+" + digits]
    if len(digits) > 1:
        spellings.append(digits[0] + "_" + digits[1:])
    return draw(st.sampled_from(spellings))


floats = st.floats(allow_nan=False, allow_infinity=False)
odd_values = st.one_of(
    floats.flatmap(lambda v: st.sampled_from([f"{v:e}", f"{v:+g}"])),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(ODD_VALUES),
)


@st.composite
def libsvm_texts(draw):
    """LIBSVM text in the spellings write_libsvm uses, with none, a few or many
    tokens spelled in other ways the line loop accepts, and one byte of damage in
    a third of the cases. Returns the text and its label_threshold."""
    threshold, labels = draw(st.sampled_from(LABELS))
    odd = draw(st.sampled_from([0, 1, 5]))  # in ten tokens

    def spell(plain, other):
        return draw(other) if draw(st.integers(0, 9)) < odd else plain

    gap = st.sampled_from([" ", "  ", "\t", " \t"])
    big = st.sampled_from([10**15, 10**17, 10**18, 2**63 - 1])
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(spell("", st.sampled_from([" ", "\t "])))  # a blank line
        tokens = [spell(labels[0], st.sampled_from(labels))]
        indices = sorted(draw(st.lists(st.integers(0, 40) | st.integers(1, 10**9) | big,
                                       unique=True, max_size=5)))
        if indices and draw(st.integers(0, 5)) == 0:
            indices.append(draw(st.sampled_from(indices)))  # repeated or decreasing
        for i in indices:
            value = repr(draw(floats))
            tokens.append(spell(str(i), index_tokens(i)) + ":" + spell(value, odd_values))
        line = spell("", st.just(" ")) + "".join(
            token + spell(" ", gap) for token in tokens[:-1]) + tokens[-1]
        lines.append(line + spell("", st.sampled_from([" ", "\t"])))
    text = "".join(line + spell("\n", st.just("\r\n")) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(text)))
        cut = draw(st.sampled_from([0, 1]))
        text = text[:at] + draw(st.sampled_from(DAMAGE + [""])) + text[at + cut:]
    return text, threshold


def _bits(ds):
    X = ds.matrix
    return (X.shape, X.indptr.dtype, X.indptr.tolist(), X.indices.dtype, X.indices.tolist(),
            X.data.dtype, X.data.view(np.int64).tolist(), ds.labels.view(np.int64).tolist())


def _outcome(source, **kwargs):
    """What parse_libsvm makes of a source: bit patterns and dtypes, or the error."""
    try:
        return _bits(parse_libsvm(source, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


def test_parse_equals_line_loop_over_whole_source(tmp_path):
    """The vectorised sections, at any chunk size, against the line loop alone."""
    seen = Counter()
    path = tmp_path / "data.svm"
    vectorised = dataio._parse_section

    def counted(section):
        parsed = vectorised(section)
        seen["vectorised" if parsed is not None else "line loop"] += 1
        return parsed

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(libsvm_texts(), st.integers(1, 48), st.booleans())
    def check(case, chunk, from_path):
        text, threshold = case
        if from_path:
            path.write_text(text, encoding="utf-8", newline="")
        source = (lambda: path) if from_path else (lambda: io.StringIO(text))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_parse_section", lambda section: None)
            mp.setattr(dataio, "PARSE_CHUNK", len(text) + 1)  # one piece
            expected = _outcome(source(), label_threshold=threshold)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_parse_section", counted)
            mp.setattr(dataio, "PARSE_CHUNK", chunk)
            assert _outcome(source(), label_threshold=threshold) == expected
        seen["parsed" if len(expected) > 2 else "rejected"] += 1

    check()
    assert min(seen.values()) >= 50, seen


def _cpus(mp, count):
    """Stub the usable CPU count, so that a path parses in up to `count` processes."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@st.composite
def ranged_texts(draw):
    """A libsvm_texts case written up to four times over, after blank lines
    that move it into later ranges."""
    text, threshold = draw(libsvm_texts())
    blanks = draw(st.lists(st.sampled_from(["\n", "\r\n", " " * 99 + "\n", "\t" * 99 + "\r"]),
                           max_size=16))
    return "".join(blanks) + "\n".join([text] * draw(st.integers(1, 4))), threshold


def test_parse_in_ranges_equals_one_process(tmp_path):
    """A path cut into 2 or 3 ranges parses as it does in one process."""
    seen = Counter()
    path = tmp_path / "data.svm"

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(ranged_texts(), st.integers(1, 12), st.sampled_from([2, 3]))
    def check(case, chunk, procs):
        text, threshold = case
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "PARSE_CHUNK", chunk)
            _cpus(mp, 1)
            expected = _outcome(path, label_threshold=threshold)
            _cpus(mp, procs)
            cuts = dataio._cuts(path)
            assert _outcome(path, label_threshold=threshold) == expected
        assert multiprocessing.active_children() == []
        seen[f"{len(cuts) - 1} ranges"] += 1
        first = path.read_bytes()[:cuts[1]].decode().replace("\r\n", "\n").replace("\r", "\n")
        named = re.match(r"line (\d+):", expected[1]) if len(expected) == 2 else None
        if len(expected) > 2:
            seen["parsed"] += 1
        elif named and int(named[1]) > first.count("\n") and len(cuts) > 2:
            seen["named past the first range"] += 1

    check()
    assert min(seen[key] for key in ("2 ranges", "3 ranges", "parsed",
                                     "named past the first range")) >= 10, seen


FILLER = "+1 1:0.5 3:-2e-3\n"


@pytest.mark.parametrize("special", ["-1 2:1\r\n", "-1 2:1\r", "\n", "\r\n", " \t\r\n",
                                     "-1\n", "-1\r\n", "0\r"])
def test_parse_line_ends_at_range_cuts(tmp_path, monkeypatch, special):
    """CRLF, lone CR, blank and label-only lines just before and just after a cut."""
    path = tmp_path / "data.svm"
    monkeypatch.setattr(dataio, "PARSE_CHUNK", 8)
    cut_at = set()
    for pad in range(2 * len(FILLER)):  # leading blanks move the special line past the cut
        text = " " * pad + FILLER * 5 + special + FILLER * 6
        path.write_bytes(text.encode())
        _cpus(monkeypatch, 2)
        cuts = dataio._cuts(path)
        assert len(cuts) == 3 and text.encode()[cuts[1] - 1] == ord("\n")
        start = pad + len(FILLER) * 5
        where = {start: "start", start + len(special): "end"}.get(cuts[1])
        if where is None:
            continue
        cut_at.add(where)
        parsed = _outcome(path)
        _cpus(monkeypatch, 1)
        assert parsed == _outcome(path)
        assert len(parsed) > 2 and len(parsed[-1]) == 12 - (not special.strip())
    assert cut_at == ({"start", "end"} if special.endswith("\n") else {"start"})
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("damage, message", [
    (b"+1 1:x", "line 151: non-numeric token '1:x'"),
    (b"+1 1:\xff", "line 151: b'\\xff' is not UTF-8 text (invalid start byte)"),
])
def test_parse_error_in_child_range_names_its_line(tmp_path, monkeypatch, damage, message):
    """The first damaged line in file order is named by its line in the file."""
    lines = [b"+1 1:%d" % i for i in range(240)]
    lines[150] = damage
    lines[200] = b"+1 1:y"  # a later error in the last range does not win
    path = tmp_path / "data.svm"
    path.write_bytes(b"\n".join(lines) + b"\n")
    monkeypatch.setattr(dataio, "PARSE_CHUNK", 64)
    _cpus(monkeypatch, 1)
    assert _outcome(path) == (LibsvmParseError, message)
    _cpus(monkeypatch, 3)
    cuts = dataio._cuts(path)
    assert len(cuts) == 4 and cuts[1] < len(b"\n".join(lines[:150])) < cuts[2]
    assert _outcome(path) == (LibsvmParseError, message)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("raw, bad", [
    (b"+1 1:2\r\n-1 1:3\r\xff 1:1\n", "b'\\xff' is not UTF-8 text (invalid start byte)"),
    ("+1 1:2\n-1 1:\u00e9\n".encode() + b"+1 \xe2\x28\n",
     "b'\\xe2' is not UTF-8 text (invalid continuation byte)"),
    (b"+1 1:2\n-1 1:3\r\n\xc3", "b'\\xc3' is not UTF-8 text (unexpected end of data)"),
])
def test_parse_names_the_line_of_a_byte_not_utf8(tmp_path, monkeypatch, raw, bad):
    """At every piece size: pieces may split a CRLF, hold back a CR or cut a character."""
    plain, packed = tmp_path / "data.svm", tmp_path / "data.svm.gz"
    plain.write_bytes(raw)
    packed.write_bytes(gzip.compress(raw))
    for chunk in range(1, len(raw) + 2):
        monkeypatch.setattr(dataio, "PARSE_CHUNK", chunk)
        assert _outcome(plain) == _outcome(packed) == (LibsvmParseError, "line 3: " + bad)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("stage", ["_count", "_parse_section"])
def test_parse_dead_child_range_parsed_in_process(tmp_path, monkeypatch, stage):
    """A child that dies while counting or parsing leaves its range to the caller."""
    path = tmp_path / "data.svm"
    path.write_text("".join(f"{(-1) ** i:+d} {i % 7 + 1}:{i}.5\n" for i in range(300)))
    monkeypatch.setattr(dataio, "PARSE_CHUNK", 64)
    _cpus(monkeypatch, 1)
    expected = _outcome(path)
    parent, live = os.getpid(), getattr(dataio, stage)

    def die_in_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return live(*args)

    monkeypatch.setattr(dataio, stage, die_in_child)
    _cpus(monkeypatch, 2)
    assert len(dataio._cuts(path)) == 3
    assert _outcome(path) == expected and len(expected) > 2
    assert multiprocessing.active_children() == []


def test_parse_unforked_child_range_parsed_in_process(tmp_path, monkeypatch):
    """A child that cannot be forked (EAGAIN under a pid limit, say) leaves its
    range to the caller, as one that died at once does."""
    path = tmp_path / "data.svm"
    path.write_text("".join(f"{(-1) ** i:+d} {i % 7 + 1}:{i}.5\n" for i in range(300)))
    monkeypatch.setattr(dataio, "PARSE_CHUNK", 64)
    _cpus(monkeypatch, 1)
    expected = _outcome(path)
    refused = refuse_forks(monkeypatch)
    _cpus(monkeypatch, 3)
    assert len(dataio._cuts(path)) == 4
    assert _outcome(path) == expected and len(expected) > 2
    assert len(refused) == 2 and multiprocessing.active_children() == []


def test_parse_leaves_no_child_on_raise(tmp_path, monkeypatch):
    """An exception in the caller's range ends the child, which would sleep on."""
    class Stop(BaseException):
        pass

    parent = os.getpid()

    def stop_or_sleep(section):
        if os.getpid() == parent:
            raise Stop
        time.sleep(30)

    path = tmp_path / "data.svm"
    path.write_text(FILLER * 100)
    monkeypatch.setattr(dataio, "PARSE_CHUNK", 64)
    monkeypatch.setattr(dataio, "_parse_section", stop_or_sleep)
    _cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(Stop):
        parse_libsvm(path)
    assert time.monotonic() - start < 20
    assert multiprocessing.active_children() == []


def test_parse_in_pool_worker(tmp_path, monkeypatch):
    """A daemonic process may not fork, so a pool worker parses in one range."""
    path = tmp_path / "data.svm"
    path.write_text(FILLER * 100)
    monkeypatch.setattr(dataio, "PARSE_CHUNK", 64)
    _cpus(monkeypatch, 2)
    expected = _outcome(path)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply(_outcome, (path,))
        pool.close()
        pool.join()
    assert got == expected and len(expected) > 2
    assert multiprocessing.active_children() == []


@st.composite
def datasets(draw):
    n = draw(st.sampled_from([1, 9, 2**31 - 1, 2**31]))
    column = st.integers(0, min(n, 9) - 1) | st.integers(max(0, n - 3), n - 1)
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [-0.0, 5e-324, -2.2250738585072014e-308, 1e-310])
    rows = draw(st.lists(st.lists(column, unique=True, max_size=4), min_size=1, max_size=6))
    cols = np.array([c for row in rows for c in sorted(row)], dtype=np.int64)
    data = np.array([draw(value) for _ in cols], dtype=np.float64)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(rows), max_size=len(rows)))
    index = index_dtype(n, len(cols))
    matrix = sp.csr_matrix((data, cols.astype(index), indptr.astype(index)), shape=(len(rows), n))
    return Dataset(matrix, labels)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(datasets(), st.integers(1, 64))
def test_write_parse_round_trip_bit_for_bit(ds, chunk):
    """write_libsvm's text parses back bit for bit, every section vectorised."""
    buf = io.StringIO()
    write_libsvm(ds, buf)
    vectorised = dataio._parse_section

    def vouched(section):
        parsed = vectorised(section)
        assert parsed is not None, section
        return parsed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_parse_section", vouched)
        mp.setattr(dataio, "PARSE_CHUNK", chunk)
        back = parse_libsvm(io.StringIO(buf.getvalue()), n_features=ds.n_features)
    assert _bits(back) == _bits(ds)  # Dataset.__eq__ takes -0.0 for 0.0


def test_split_sizes_and_disjointness():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 8, 100, RngStream(5, "synth"))
    train, test = split_train_test(ds, SplitSpec(0.8, RngStream(5, "split")))
    assert len(train) == 80
    assert len(test) == 20
    # row multiset is preserved: compare sorted serialized rows
    def keys(d):
        X = d.matrix
        return sorted((tuple(X[i].indices), tuple(X[i].data), d.labels[i]) for i in range(len(d)))
    assert sorted(keys(train) + keys(test)) == keys(ds)


def test_split_rounding_and_validation():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 5, RngStream(6, "synth"))
    train, test = split_train_test(ds, SplitSpec(0.5, RngStream(6, "split")))
    assert (len(train), len(test)) == (2, 3)  # round(0.5*5) = 2 (banker's)
    with pytest.raises(ValueError):
        SplitSpec(0.0, RngStream(0, "split"))
    with pytest.raises(ValueError):
        SplitSpec(1.0, RngStream(0, "split"))
    tiny = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 3, RngStream(7, "synth"))
    with pytest.raises(ValueError):
        split_train_test(tiny, SplitSpec(0.9, RngStream(0, "split")))


def test_split_deterministic():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 8, 50, RngStream(9, "synth"))
    a_train, a_test = split_train_test(ds, SplitSpec(0.8, RngStream(1, "split")))
    b_train, b_test = split_train_test(ds, SplitSpec(0.8, RngStream(1, "split")))
    assert a_train == b_train and a_test == b_test
    c_train, _ = split_train_test(ds, SplitSpec(0.8, RngStream(2, "split")))
    assert not (a_train == c_train)


def test_partition_covers_and_balances():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 23, RngStream(11, "synth"))
    plan = partition_uniform(ds, 4, RngStream(11, "partition"))
    assert len(plan.worker_shards) == 4
    sizes = sorted(len(s) for s in plan.worker_shards)
    assert sizes == [5, 6, 6, 6]  # 23 = 4*5+3, shard sizes differ by at most 1
    all_rows = np.sort(np.concatenate(plan.worker_shards))
    npt.assert_array_equal(all_rows, np.arange(23))


def test_partition_validation_and_determinism():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 10, RngStream(12, "synth"))
    with pytest.raises(ValueError):
        partition_uniform(ds, 11, RngStream(0, "partition"))
    with pytest.raises(ValueError):
        partition_uniform(ds, 0, RngStream(0, "partition"))
    p1 = partition_uniform(ds, 3, RngStream(4, "partition"))
    p2 = partition_uniform(ds, 3, RngStream(4, "partition"))
    for a, b in zip(p1.worker_shards, p2.worker_shards):
        npt.assert_array_equal(a, b)


def test_synth_separable_truth_has_zero_error():
    ds, w_star = synth_dataset_with_truth(SynthKind.SEPARABLE_LINEAR, 20, 500, RngStream(21, "synth"))
    assert classification_error(w_star, ds) == 0.0
    # per-row sparsity: round(20/4) = 5 distinct sorted indices
    for i in range(0, 500, 97):
        indices = ds.matrix[i].indices
        assert len(indices) == 5
        assert np.all(np.diff(indices) > 0)


def test_synth_noisy_flip_rate():
    n_rows = 100_000
    ds, w_star = synth_dataset_with_truth(SynthKind.NOISY_LINEAR, 8, n_rows, RngStream(22, "synth"))
    err = classification_error(w_star, ds)
    assert abs(err - 0.1) < 0.01  # flips happen with probability 0.1


def test_synth_single_feature_dimension():
    ds = synth_dataset(SynthKind.SEPARABLE_LINEAR, 1, 10, RngStream(23, "synth"))
    assert ds.n_features == 1
    npt.assert_array_equal(np.diff(ds.matrix.indptr), 1)


def test_synth_deterministic():
    a = synth_dataset(SynthKind.NOISY_LINEAR, 6, 30, RngStream(31, "synth"))
    b = synth_dataset(SynthKind.NOISY_LINEAR, 6, 30, RngStream(31, "synth"))
    assert a == b
    c = synth_dataset(SynthKind.NOISY_LINEAR, 6, 30, RngStream(32, "synth"))
    assert not (a == c)


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_dataset(SynthKind.SEPARABLE_LINEAR, 0, 5, RngStream(0, "synth"))
    with pytest.raises(ValueError):
        synth_dataset(SynthKind.SEPARABLE_LINEAR, 5, 0, RngStream(0, "synth"))


def test_objective_over_parsed_data():
    ds = parse_libsvm(io.StringIO(SAMPLE))
    obj = RegularizedObjective(LossKind.LR, ds, reg=0.0)
    assert obj.eval_full(np.zeros(4)) == np.log(2.0)
