"""Server orchestration: momentum algebra, round mechanics, budget accounting,
scheduling independence, and end-to-end descent."""
from __future__ import annotations

import errno
import fcntl
import multiprocessing
import os
import signal
import sys
import termios
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from desopt import (
    BETA_LIMIT,
    Dataset,
    DesConfig,
    LossKind,
    MutationKind,
    MutationModel,
    NonFiniteObjectiveError,
    RegularizedObjective,
    RngStream,
    ServerState,
    SplitSpec,
    SynthKind,
    average_displacement,
    des_round,
    momentum_update,
    partition_uniform,
    run_des,
    split_train_test,
    step_size,
    synth_dataset,
)
from desopt import localsolver, objective, processes, server
from desopt.objective import StackedBatch
from desopt.processes import PIPE_BYTES, Ring, forked, recv_arrays, send_arrays
from helpers import initial_state, refuse_forks
from recording import recording

GAUSS = MutationModel(MutationKind.STANDARD_GAUSSIAN, 4)
needs_ring = pytest.mark.skipif(not hasattr(os, "eventfd"), reason="a Ring needs eventfd (Linux)")


def make_cfg(**kw):
    base = dict(workers=2, rounds=3, local_iters=4, batch_size=5, alpha=1.0,
                model=GAUSS, seed=0, beta=0.5)
    base.update(kw)
    return DesConfig(**base)


def test_momentum_update_identities():
    m = np.array([2.0, 0.0])
    d = np.array([0.0, 2.0])
    npt.assert_array_equal(momentum_update(m, d, 0.5), [1.0, 1.0])
    npt.assert_array_equal(momentum_update(m, d, 0.0), d)
    npt.assert_array_equal(momentum_update(np.zeros(2), d, 0.5), [0.0, 1.0])


def test_momentum_update_validation():
    with pytest.raises(ValueError):
        momentum_update(np.zeros(2), np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        momentum_update(np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        momentum_update(np.zeros(2), np.zeros(2), -0.1)


def test_momentum_geometric_approach():
    # Iterating with a constant displacement contracts toward it at rate beta.
    beta = 0.5
    d = np.array([1.0, -2.0])
    m = np.zeros(2)
    for t in range(1, 20):
        m = momentum_update(m, d, beta)
        npt.assert_allclose(np.linalg.norm(m - d), beta**t * np.linalg.norm(d), rtol=1e-12)


def test_beta_limit_value_and_enforcement():
    npt.assert_allclose(BETA_LIMIT, 0.5946035575013605, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        make_cfg(beta=0.6)
    with pytest.raises(ValueError):
        make_cfg(beta=BETA_LIMIT)
    make_cfg(beta=0.59)  # just below the limit: fine
    make_cfg(beta=0.6, allow_unsafe_beta=True)  # explicit override
    with pytest.raises(ValueError):
        make_cfg(beta=1.0, allow_unsafe_beta=True)  # hard range stays closed


def test_small_batch_warning():
    with pytest.warns(UserWarning, match="sqrt"):
        make_cfg(batch_size=2, rounds=25)
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("error")
        make_cfg(batch_size=5, rounds=25)  # 5 = sqrt(25): no warning


def test_config_validation():
    for bad in (dict(workers=0), dict(rounds=-1), dict(local_iters=0),
                dict(batch_size=0), dict(alpha=0.0)):
        with pytest.raises(ValueError):
            make_cfg(**bad)


def test_average_displacement_identity():
    x = np.array([1.0, 2.0])
    c = np.array([0.5, -0.5])
    finals = [x + c, x + c, x + c]
    npt.assert_allclose(average_displacement(x, finals), c, rtol=1e-15)
    # exact zero when every worker returns the broadcast point unchanged
    npt.assert_array_equal(average_displacement(x, [x.copy(), x.copy()]), [0.0, 0.0])


def test_des_round_all_rejected_is_fixed_point():
    # A regularizer this large makes every move away from x = 0 worse than
    # staying: every worker returns x unchanged, d = 0, and with m = 0 the
    # incumbent does not move.
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(3, "synth"))
    obj = RegularizedObjective(LossKind.LR, train, reg=1e6)
    cfg = make_cfg(workers=2, beta=0.5)
    partition = partition_uniform(train, 2, RngStream(0, "partition"))
    state = initial_state(4)
    new_state, metrics = des_round(state, cfg, obj, partition)
    npt.assert_array_equal(new_state.x, state.x)
    npt.assert_array_equal(new_state.m, np.zeros(4))
    assert new_state.t == 1
    assert metrics.accepted == (0, 0)
    assert metrics.evals == obj.eval_counter == 2 * 4 * 5


def test_des_round_schedule_is_exact(monkeypatch):
    # Every dense candidate a worker scores at round t must be its kept point
    # plus step_size(alpha, t, k) times its k-th draw from its (t, i,
    # "mutation") stream, bit for bit: the step the solver used.
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(3, "synth"))
    from desopt import RegularizedObjective

    for t in (0, 3):
        cfg = make_cfg(workers=2, local_iters=4, batch_size=3, alpha=2.0)
        obj = RegularizedObjective(LossKind.LR, train)
        from desopt import partition_uniform
        partition = partition_uniform(train, 2, RngStream(cfg.seed, "partition"))
        state = initial_state(4)
        state.t = t
        batches = recording(StackedBatch)
        monkeypatch.setattr(server, "StackedBatch", batches)
        des_round(state, cfg, obj, partition)
        [batch] = batches.made
        assert len(batch.steps) == 4
        for i in (0, 1):
            gen = RngStream(cfg.seed, t, i, "mutation").gen
            [draws] = localsolver.dense_draws(cfg.model, [gen], 4)
            kept = state.x
            for k, step in enumerate(batch.steps):
                assert np.array_equal(step.candidates[i], kept + step_size(2.0, t, k) * draws[k, 0])
                kept = step.kept[i]


@pytest.mark.parametrize("path", ["stacked"])
def test_des_round_nan_start_raises(path):
    # A NaN parent value must be refused instead of ranked against.
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(3, "synth"))
    obj = RegularizedObjective(LossKind.LR, train)
    partition = partition_uniform(train, 2, RngStream(0, "partition"))
    state = ServerState(x=np.array([0.5, np.nan, 0.0, 1.0]), m=np.zeros(4), t=0)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteObjectiveError, match="start point"):
        des_round(state, make_cfg(), obj, partition)


def test_des_round_nan_candidate_raises(monkeypatch):
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(3, "synth"))
    obj = RegularizedObjective(LossKind.LR, train)
    partition = partition_uniform(train, 2, RngStream(0, "partition"))
    monkeypatch.setattr(StackedBatch, "values", lambda self, V, *plan: np.full(len(V), np.nan))
    with pytest.raises(NonFiniteObjectiveError, match="candidate"):
        des_round(initial_state(4), make_cfg(), obj, partition)


def test_round_and_run_eval_accounting():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 60, RngStream(4, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 20, RngStream(5, "synth"))
    cfg = make_cfg(workers=3, rounds=4, local_iters=6, batch_size=7,
                   model=MutationModel(MutationKind.STANDARD_GAUSSIAN, 6))
    record = run_des(cfg, train, test, LossKind.LR)
    per_round = 3 * 6 * 7
    assert [r.cum_evals for r in record.rows] == [t * per_round for t in range(5)]
    assert [r.round for r in record.rows] == list(range(5))


def test_run_des_round0_at_zero():
    train = synth_dataset(SynthKind.NOISY_LINEAR, 5, 50, RngStream(6, "synth"))
    test = synth_dataset(SynthKind.NOISY_LINEAR, 5, 20, RngStream(7, "synth"))
    cfg = make_cfg(workers=2, rounds=0, batch_size=4,
                   model=MutationModel(MutationKind.STANDARD_GAUSSIAN, 5))
    record = run_des(cfg, train, test, LossKind.LR)
    assert len(record.rows) == 1
    row = record.rows[0]
    assert row.round == 0 and row.cum_evals == 0
    assert row.train_loss == np.log(2.0)  # x0 = 0, reg term vanishes
    assert row.wall_ms == 0.0


def test_run_des_budget_cap():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 5, 40, RngStream(8, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 5, 10, RngStream(9, "synth"))
    model = MutationModel(MutationKind.STANDARD_GAUSSIAN, 5)
    per_round = 2 * 4 * 5
    cfg = make_cfg(workers=2, rounds=10, local_iters=4, batch_size=5,
                   model=model, max_evals=per_round + 1)
    record = run_des(cfg, train, test, LossKind.LR)
    # rounds are atomic: a round starts only while cum < max_evals and is
    # never truncated, so the cap lands us at 2 rounds out of 10
    assert [r.cum_evals for r in record.rows] == [0, per_round, 2 * per_round]


def test_run_des_deterministic_and_seed_sensitivity():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 60, RngStream(10, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 6, 20, RngStream(11, "synth"))
    model = MutationModel(MutationKind.MIXTURE_GAUSSIAN, 6, 2)
    mk = lambda seed: run_des(make_cfg(workers=3, rounds=3, batch_size=4, model=model, seed=seed),
                              train, test, LossKind.NSVM)
    a, b, c = mk(1), mk(1), mk(2)
    assert [(r.train_loss, r.train_err, r.test_err) for r in a.rows] == \
           [(r.train_loss, r.train_err, r.test_err) for r in b.rows]
    assert [r.train_loss for r in a.rows] != [r.train_loss for r in c.rows]


def test_thread_count_does_not_change_results():
    train = synth_dataset(SynthKind.NOISY_LINEAR, 8, 120, RngStream(12, "synth"))
    test = synth_dataset(SynthKind.NOISY_LINEAR, 8, 30, RngStream(13, "synth"))
    model = MutationModel(MutationKind.STANDARD_GAUSSIAN, 8)
    cfg = make_cfg(workers=8, rounds=3, local_iters=5, batch_size=6, model=model)
    rows = {}
    for threads in (None, 2, 4):
        rec = run_des(cfg, train, test, LossKind.LR, threads=threads)
        rows[threads] = [(r.round, r.cum_evals, r.train_loss, r.train_err, r.test_err, r.wall_ms)
                         for r in rec.rows]
    assert rows[None] == rows[2] == rows[4]


@pytest.fixture
def two_cpus(monkeypatch):
    """Let run_des fork the round-prep helper even on a one-CPU machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def sparse_split(seed: int):
    """A sparse train/test pair whose mixture candidates make plan blocks of
    both kinds: some touch most of a round's rows, others few."""
    rng = np.random.default_rng(seed)
    features = sp.random(240, 30, density=0.1, random_state=rng, format="csr")
    full = Dataset(features, rng.choice([-1.0, 1.0], size=240))
    return split_train_test(full, SplitSpec(0.75, RngStream(seed, "split")))


def mixture_cfg(kind=MutationKind.MIXTURE_GAUSSIAN, **kw):
    return make_cfg(**{"workers": 3, "rounds": 5, "local_iters": 6, "batch_size": 8,
                       "model": MutationModel(kind, 30, 2), **kw})


def metric_rows(record):
    return [(r.round, r.cum_evals, r.train_loss, r.train_err, r.test_err) for r in record.rows]


def count_helpers(monkeypatch) -> list:
    """Record the process count of every forked() block run_des opens."""
    forks = []
    forked = server.forked
    monkeypatch.setattr(server, "forked", lambda count, *args, **kw: forks.append(count)
                        or forked(count, *args, **kw))
    return forks


def test_helper_pipe_carries_arrays_as_sent(monkeypatch):
    # send_arrays/recv_arrays over a forked() pipe of PIPE_BYTES:
    # dtypes and values (NaN, -0.0 and inf included) survive, each
    # array arrives flattened, every byte of an array is read by os.readv
    # straight into that array, in reads of at most PIPE_BYTES (an array
    # larger than PIPE_BYTES takes several), a receive into larger
    # destinations fills their fronts, and the reader sees EOF once the
    # child is done
    arrays = [np.arange(5), np.array([[1.5, -0.0, np.inf], [np.nan, 2.0, -3.0]]),
              np.zeros(0, dtype=np.int32), np.array([True, False, True]),
              np.arange(3, dtype=np.int32), np.zeros(0),
              np.linspace(-1.0, 1.0, 2 * PIPE_BYTES // 8 + 3)]
    into = [np.full(7, -1), np.full(9, 4.0), np.full(2, 9, dtype=np.int32),
            np.zeros(4, dtype=bool), np.full(3, 7, dtype=np.int32), np.full(1, 5.0),
            np.full(arrays[-1].size + 2, 6.0)]
    before = [a.copy() for a in into]

    def work(k, writer):
        with writer:
            send_arrays(writer, arrays)
            send_arrays(writer, arrays)

    with forked(1, work) as [(_, reader)]:
        if sys.platform == "linux":
            assert fcntl.fcntl(reader.fileno(), fcntl.F_GETPIPE_SZ) == PIPE_BYTES
        spans, readv = [], os.readv

        def reading(fd, buffers):  # the (address, bytes) spans each read filled
            assert fd == reader.fileno() and sum(b.nbytes for b in buffers) <= PIPE_BYTES
            got = left = readv(fd, buffers)
            for b in buffers:
                spans.append((b.ctypes.data, min(left, b.nbytes)))
                left -= spans[-1][1]
            return got

        monkeypatch.setattr(os, "readv", reading)
        got = recv_arrays(reader)
        monkeypatch.setattr(os, "readv", readv)
        # after the header's two reads (its array count, then three int64s an
        # array), the reads cover each array's own memory, in order, once
        merged = []
        for at, size in spans:
            if merged and merged[-1][0] + merged[-1][1] == at:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            elif size:
                merged.append((at, size))
        assert [size for _, size in merged[:2]] == [8, 24 * len(arrays)]
        assert merged[2:] == [(a.ctypes.data, a.nbytes) for a in got if a.size]
        assert len(spans) > len(arrays) + 1  # the large array took several reads
        put = recv_arrays(reader, into)
        with pytest.raises(EOFError):
            recv_arrays(reader)
    assert len(got) == len(put) == len(arrays)
    for want, have in zip(arrays + arrays, got + put):
        assert have.dtype == want.dtype and have.shape == (want.size,)
        assert np.array_equal(have, want.reshape(-1), equal_nan=want.dtype.kind == "f")
        assert np.array_equal(np.signbit(have), np.signbit(want.reshape(-1)))
    for have, dest, old in zip(put, into, before):
        assert have.base is dest
        assert np.array_equal(dest[have.size:], old[have.size:])
    assert multiprocessing.active_children() == []
    # a destination of another dtype, or with too little room, is refused
    for wrong in (np.zeros(3), np.zeros(2, dtype=np.int64)):
        reader, writer = multiprocessing.Pipe(duplex=False)
        with reader, writer:
            send_arrays(writer, [np.arange(3)])
            with pytest.raises(ValueError, match="does not fit"):
                recv_arrays(reader, [wrong])


# the dtypes of the arrays that cross desopt's pipes: rows, plan indices and
# parse arrays (int64, int32), draws, products, terms and parse values
# (float64), and bool for good measure
PIPE_DTYPES = (np.int64, np.int32, np.float64, np.bool_)


def filled(dtype: np.dtype, size: int, seed: int) -> np.ndarray:
    """size random values of dtype; floats hold signed zeros, infinities and NaN."""
    rng = np.random.default_rng(seed)
    if dtype.kind == "f":
        a = rng.normal(size=size) * 1e3
        special = rng.random(size) < 0.3
        a[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(special.sum()))
        return a
    if dtype.kind == "b":
        return rng.random(size) < 0.5
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=size, dtype=dtype, endpoint=True)


@st.composite
def pipe_arrays(draw):
    """A list of arrays of the pipe's dtypes, each empty, small or larger
    than PIPE_BYTES, some 2-d."""
    arrays = []
    for _ in range(draw(st.integers(0, 4))):
        dtype = np.dtype(draw(st.sampled_from(PIPE_DTYPES)))
        size = draw(st.sampled_from([0, 1, 6, PIPE_BYTES // dtype.itemsize + 5]))
        a = filled(dtype, size, draw(st.integers(0, 2**32 - 1)))
        arrays.append(a.reshape(2, -1) if size % 2 == 0 and draw(st.booleans()) else a)
    return arrays


def test_pipe_round_trip_is_bit_for_bit():
    # Any list of arrays sent by a forked child arrives bit for bit (signed
    # zeros and NaN payloads included), flattened, in a new array or in the
    # front of a given one, and EOF at the boundary after the last send is
    # EOFError
    seen = Counter()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pipe_arrays(), st.booleans())
    def check(arrays, use_into):
        into = [np.zeros(a.size + 3, a.dtype) for a in arrays] if use_into else None

        def work(k, writer):
            with writer:
                send_arrays(writer, arrays)

        with forked(1, work) as [(_, reader)]:
            got = recv_arrays(reader, into)
            with pytest.raises(EOFError):
                recv_arrays(reader)
        assert len(got) == len(arrays)
        for k, (have, want) in enumerate(zip(got, arrays)):
            assert have.dtype == want.dtype and have.shape == (want.size,)
            assert have.tobytes() == want.tobytes()
            if use_into:
                assert have.base is into[k] and not into[k][have.size:].any()
            seen["large" if want.nbytes > PIPE_BYTES else "small" if want.size else "empty"] += 1
        seen["into" if use_into else "new"] += 1

    check()
    assert min(seen[k] for k in ("large", "small", "empty", "into", "new")) > 0, seen
    assert multiprocessing.active_children() == []


# a Ring's bytes in the ring tests: small enough that rounds wrap, and that
# some arrays do not fit in it at all
RING = 1024


@st.composite
def ring_rounds(draw):
    """Rounds of messages for a Ring of RING bytes, each message a list of
    (dtype, size, seed) of arrays of the pipe's dtypes, each empty, small,
    just over half the ring (two do not fit in one round) or larger than it."""
    def array():
        dtype = np.dtype(draw(st.sampled_from(PIPE_DTYPES)))
        size = draw(st.sampled_from([0, 1, 7, RING // 2 // dtype.itemsize + 1,
                                     RING // dtype.itemsize + 1]))
        return dtype, size, draw(st.integers(0, 2**32 - 1))

    return [[[array() for _ in range(draw(st.integers(0, 3)))]
             for _ in range(draw(st.integers(1, 3)))] for _ in range(draw(st.integers(1, 4)))]


@needs_ring
def test_ring_round_trip_is_bit_for_bit(monkeypatch):
    # A forked child sends rounds of messages through a small Ring, and the
    # reader releases each round once it has checked it: every array, sent
    # as a column, arrives bit for bit, flattened, through the ring when it
    # fits beside its round's bytes (wrapping to the ring's start) and by
    # value otherwise (every array larger than the ring). After the last
    # message the reader sees EOFError, or OSError if the child died
    # part-way through a header. No round waits for itself.
    monkeypatch.setattr(processes, "RING_BYTES", RING)
    seen = Counter()

    # a deadlock fails the example at once, unshrunk (each shrink would wait again)
    @settings(max_examples=40, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(ring_rounds(), st.booleans())
    def check(rounds, cut):
        def work(k, writer):
            with writer:
                for messages in rounds:
                    for arrays in messages:
                        send_arrays(writer, [filled(*array).reshape(-1, 1) for array in arrays],
                                    ring)
                    ring.new_round()
                if cut:  # a header's array count, and no more
                    os.write(writer.fileno(), np.array([2], np.int64).tobytes())

        with Ring() as ring, forked(1, work) as [(_, reader)], deadline(30):
            last = -1  # where the last array received through the ring starts in it
            for messages in rounds:
                for arrays in messages:
                    got = recv_arrays(reader, ring=ring)
                    assert len(got) == len(arrays)
                    for have, (dtype, size, seed) in zip(got, arrays):
                        assert have.dtype == dtype and have.shape == (size,)
                        assert have.tobytes() == filled(dtype, size, seed).tobytes()
                        if np.shares_memory(have, ring.memory):
                            at = have.ctypes.data - ring.memory.ctypes.data
                            seen["wrapped"] += at < last
                            seen["through the ring"] += 1
                            last = at
                        elif size:
                            seen["above the ring" if have.nbytes > RING else "by value"] += 1
                ring.release()
            with pytest.raises(OSError, match="end of file during message") if cut else \
                    pytest.raises(EOFError):
                recv_arrays(reader, ring=ring)
        seen["cut" if cut else "whole"] += 1

    check()
    assert min(seen[k] for k in ("wrapped", "through the ring", "by value", "above the ring",
                                 "cut", "whole")) > 0, seen
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(sys.platform != "linux", reason="reads the pipe's fill level (FIONREAD)")
def test_pipe_writer_killed_mid_array_is_oserror():
    # The child's first call arrives whole; its second, an array larger than
    # the pipe, fills the pipe and blocks. Killed there, the child leaves a
    # call cut part-way through its array: the reader takes what was sent and
    # raises OSError, not EOFError
    big = np.arange(3 * PIPE_BYTES // 8, dtype=np.float64)

    def work(k, writer):
        send_arrays(writer, [np.arange(3)])
        send_arrays(writer, [big])

    with forked(1, work) as [(child, reader)]:
        assert np.array_equal(recv_arrays(reader)[0], np.arange(3))
        capacity, waiting = fcntl.fcntl(reader.fileno(), fcntl.F_GETPIPE_SZ), bytearray(4)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            fcntl.ioctl(reader.fileno(), termios.FIONREAD, waiting)
            if int.from_bytes(waiting, sys.byteorder) >= capacity:
                break
            time.sleep(0.01)
        child.terminate()
        child.join()
        with pytest.raises(OSError, match="end of file during message"):
            recv_arrays(reader)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_refused_forks_leave_no_descriptor_open(monkeypatch):
    # os.fork itself refuses (EAGAIN under a pid limit, say), after
    # multiprocessing has opened its two pipes: forked() closes them, and its
    # own pipe, so several refused blocks leave as many descriptors open as before
    def refuse():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    monkeypatch.setattr(os, "fork", refuse)
    before = open_fds()
    for _ in range(5):
        with forked(1, lambda k, writer: None) as [(child, reader)]:
            assert child is None
            with pytest.raises(EOFError):
                reader.recv_bytes()
    assert open_fds() == before


@pytest.mark.parametrize("kind", [MutationKind.MIXTURE_GAUSSIAN, MutationKind.MIXTURE_RADEMACHER])
def test_mixture_thread_count_does_not_change_results(kind, monkeypatch, two_cpus):
    # On two CPUs each run forks one helper that prepares rounds 1.. ahead,
    # whatever threads is; a small PLAN_ENTRIES cuts each of its rounds into
    # several plan blocks (messages). On one CPU the caller prepares them.
    train, test = sparse_split(14)
    monkeypatch.setattr(objective, "PLAN_ENTRIES", 20)
    kinds = Counter()
    plan_blocks = objective._plan_blocks

    def counted(*args):
        for block in plan_blocks(*args):
            kinds["touched rows" if block.tbounds.size else "most rows"] += 1
            yield block

    monkeypatch.setattr(objective, "_plan_blocks", counted)
    forks = count_helpers(monkeypatch)
    rows = {threads: metric_rows(run_des(mixture_cfg(kind), train, test, LossKind.LR,
                                         threads=threads))
            for threads in (None, 1, 2, 4)}
    assert forks == [1, 1, 1, 1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    alone = metric_rows(run_des(mixture_cfg(kind), train, test, LossKind.LR))
    assert rows[None] == rows[1] == rows[2] == rows[4] == alone
    assert forks == [1, 1, 1, 1]
    assert kinds["most rows"] > 0 and kinds["touched rows"] > 0, kinds
    assert multiprocessing.active_children() == []


def test_no_helper_without_a_free_cpu_or_for_one_round(monkeypatch):
    train, test = sparse_split(15)
    forks = count_helpers(monkeypatch)
    dense = mixture_cfg(model=MutationModel(MutationKind.STANDARD_GAUSSIAN, 30))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_des(mixture_cfg(), train, test, LossKind.LR)
    run_des(dense, train, test, LossKind.LR)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    run_des(mixture_cfg(rounds=1), train, test, LossKind.LR)
    run_des(mixture_cfg(rounds=1, model=dense.model), train, test, LossKind.LR)
    assert forks == []
    # a dense model gets a helper as a mixture model does
    run_des(dense, train, test, LossKind.LR)
    assert forks == [1]
    forks.clear()
    # a running child of the caller (a desopt run --threads worker, say)
    # holds the second CPU; once it has exited, the helper may have it
    with forked(1, lambda k, writer: time.sleep(30)):
        busy = metric_rows(run_des(mixture_cfg(), train, test, LossKind.LR))
    assert forks == []
    assert metric_rows(run_des(mixture_cfg(), train, test, LossKind.LR)) == busy
    assert forks == [1]
    assert multiprocessing.active_children() == []


def _pool_rows(threads):
    train, test = sparse_split(16)
    return metric_rows(run_des(mixture_cfg(), train, test, LossKind.LR, threads=threads))


def test_run_des_in_pool_worker(two_cpus):
    # a daemonic process may not fork, so a pool worker runs with no helper
    expected = _pool_rows(None)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply(_pool_rows, (2,))
        pool.close()
        pool.join()
    assert got == expected
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [0, -1, -8])
def test_run_des_rejects_thread_counts_below_one(threads):
    train, test = sparse_split(17)
    with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
        run_des(mixture_cfg(), train, test, LossKind.LR, threads=threads)


@pytest.mark.parametrize("kind, n", [(MutationKind.MIXTURE_GAUSSIAN, 10),
                                     (MutationKind.STANDARD_GAUSSIAN, 1),
                                     (MutationKind.MIXTURE_RADEMACHER, 30)])
def test_model_dimension_must_match_the_data(kind, n, monkeypatch, two_cpus):
    # a mixture model over too few coordinates once ran to a wrong result, a
    # dense one of n=1 broadcast one draw to every coordinate, and one over
    # too many raised IndexError; each is refused before a round or a helper
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 20, 60, RngStream(20, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 20, 20, RngStream(21, "synth"))
    cfg = make_cfg(model=MutationModel(kind, n, 2))
    message = f"mutation model dimension {n} differs from the data's 20 features"
    forks = count_helpers(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_des(cfg, train, test, LossKind.LR)
    obj = RegularizedObjective(LossKind.LR, train)
    with pytest.raises(ValueError, match=message):
        des_round(initial_state(20), cfg, obj, partition_uniform(train, 2, RngStream(0, "partition")))
    assert forks == [] and obj.eval_counter == 0


def dense_cfg(**kw):
    return mixture_cfg(model=MutationModel(MutationKind.STANDARD_GAUSSIAN, 30), **kw)


@needs_ring
def test_helper_sent_rounds_equal_prepare_round(monkeypatch):
    # Every round the helper sends (1..T-1) is bit for bit what _round_arrays
    # makes in the calling process, list by list up to the round's end mark:
    # the batch rows, a mixture round's cols and terms (a dense round has
    # none), and each block's arrays, flattened, every one of them read in
    # the ring that the helper wrote. prepare_round reads them into the same
    # batch rows and candidates, each with its plan. A small PLAN_ENTRIES gives mixture rounds
    # several plan blocks of both kinds, and a small DENSE_BLOCK gives dense
    # rounds several draw blocks. While the helper lives, the caller makes
    # round 0 only.
    train, _ = sparse_split(22)
    monkeypatch.setattr(objective, "PLAN_ENTRIES", 20)
    monkeypatch.setattr(localsolver, "DENSE_BLOCK", 2 * 30)  # two iterations a block
    obj = RegularizedObjective(LossKind.LR, train)
    caller, make, prepare = os.getpid(), server._round_arrays, server.prepare_round
    here, received = [], []
    monkeypatch.setattr(server, "_round_arrays", lambda *args: (
        os.getpid() == caller and here.append(args[-1])) or make(*args))

    def preparing(cfg, obj, partition, t, arrays):
        received.append(list(arrays))  # the round's lists, up to its end mark
        return prepare(cfg, obj, partition, t, received[-1])

    monkeypatch.setattr(server, "prepare_round", preparing)

    def same(have, want):  # a list that crossed the pipe arrives flattened
        return (have.dtype == want.dtype and have.shape == (want.size,)
                and have.tobytes() == want.tobytes())

    kinds, rounds = Counter(), []
    for cfg in (mixture_cfg(), dense_cfg()):
        partition = partition_uniform(train, cfg.workers, RngStream(cfg.seed, "partition"))
        with Ring() as ring, forked(1, lambda k, writer: server._send_rounds(
                cfg, obj, partition, writer, ring)) as [(_, reader)]:
            for t, (batch, candidates) in enumerate(server._prepared_rounds(cfg, obj, partition,
                                                                            reader, ring)):
                (head, *blocks), (want_head, *want_blocks) = received[-1], make(cfg, obj,
                                                                                 partition, t)
                assert len(blocks) == len(want_blocks) > 1
                assert np.array_equal(batch.rows, want_head[0].reshape(-1))
                if t:  # off the pipe, out of the ring
                    assert all(np.shares_memory(a, ring.memory)
                               for arrays in received[-1] for a in arrays if a.size)
                    assert (len(head) == 1) == (len(want_head) == 1) == (not cfg.model.is_mixture)
                    assert all(same(have, want) for have, want in zip(head, want_head, strict=True))
                for block, want in zip(blocks, want_blocks):
                    assert not t or all(same(have, w) for have, w in zip(block, want, strict=True))
                    if cfg.model.is_mixture:
                        assert len(block) == len(objective.PlanBlock._fields)
                        kinds["touched rows" if objective.PlanBlock(*want).tbounds.size
                              else "most rows"] += 1
                    else:
                        kinds["draws"] += 1
                # the candidates' fields, over the iterations
                have = list(zip(*candidates))
                if cfg.model.is_mixture:
                    want = want_head[1:]
                    plans = objective.plan_steps(objective.PlanBlock(*b) for b in want_blocks)
                    for plan, want_plan in zip(have.pop(), plans, strict=True):
                        assert all(a is b is None or np.array_equal(a, b)
                                   for a, b in zip(plan, want_plan, strict=True))
                else:
                    want = [np.concatenate(field) for field in zip(*want_blocks)]
                assert all(np.stack(h).shape == w.shape and np.array_equal(np.stack(h), w)
                           for h, w in zip(have, want, strict=True))
                rounds.append(t)
    assert rounds == 2 * list(range(5)) and here == [0, 0]
    assert kinds["most rows"] > 0 and kinds["touched rows"] > 0, kinds
    assert kinds["draws"] == 5 * 3, kinds  # 6 iterations a round, 2 a block
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("overflow", [False, True])
def test_dense_rounds_off_the_pipe_gather_no_rows(overflow, monkeypatch, two_cpus):
    # A dense round that the helper prepares reaches the calling process as
    # its rows, draws and products. The caller resets from the snapshot's
    # scores and scores every candidate from kept margins: it never gathers
    # the batch's rows (StackedBatch._X) unless a margin overflows, and makes
    # products only for round 0, which it makes itself. With entries near
    # 1e308, a draw above about 1.8 makes products overflow where the margins
    # of the small candidates (alpha is 1e-3) do not; those margins are
    # recomputed from the gathered rows. The metrics equal those of a run
    # without the helper.
    train, test = sparse_split(25)
    if overflow:
        train = Dataset(train.matrix * 1e308, train.labels)
    cfg = dense_cfg(alpha=1e-3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with np.errstate(invalid="ignore"):  # inf - inf in the total of overflowed margins
        expected = metric_rows(run_des(cfg, train, test, LossKind.LR))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller, make, prepare = os.getpid(), server._round_arrays, server.prepare_round
    here, batches = [], []
    monkeypatch.setattr(server, "_round_arrays", lambda *args: (
        os.getpid() == caller and here.append(args[-1])) or make(*args))
    monkeypatch.setattr(server, "prepare_round", lambda *args: (
        batches.append((prepared := prepare(*args))[0]) or prepared))
    products, made = StackedBatch.products, []  # the rounds prepared when a product is made here
    monkeypatch.setattr(StackedBatch, "products", lambda *args: (
        os.getpid() == caller and made.append(len(batches))) or products(*args))
    forks = count_helpers(monkeypatch)
    with np.errstate(invalid="ignore"):
        assert metric_rows(run_des(cfg, train, test, LossKind.LR)) == expected
    assert forks == [1] and here == [0] and len(batches) == cfg.rounds
    assert made == [1]  # round 0's one block, while round 0 runs
    gathered = ["_X" in batch.__dict__ for batch in batches]
    assert any(gathered) if overflow else not any(gathered), gathered
    assert multiprocessing.active_children() == []


@needs_ring
def test_round_stream_cut_anywhere_reads_as_rounds_made_here(monkeypatch):
    # The helper's lists of every round from round 1 on, end marks included,
    # go through one pipe and one ring in this process, and the writer closes
    # after any c of them, as if the helper died there. _prepared_rounds must
    # make round 0, read what was sent, make the rest here from the first list
    # not received, and read each round's end mark before the next round: the
    # states, metrics and ledger are bit for bit those of rounds all made
    # here, and only round 0 and the rounds from the cut on are made here.
    # The configs stay small, so that every header fits in the pipe's buffer
    # (64 KB), and every array in the ring, before any is read.
    train, _ = sparse_split(24)
    send, make = server.send_arrays, server._round_arrays
    made = []
    monkeypatch.setattr(server, "_round_arrays", lambda *args: made.append(args[-1]) or make(*args))

    def run(cfg, partition, reader, ring=None):
        obj = RegularizedObjective(LossKind.LR, train)
        state, out = ServerState(x=np.zeros(30), m=np.zeros(30)), []
        for prepared in server._prepared_rounds(cfg, obj, partition, reader, ring):
            state, metrics = des_round(state, cfg, obj, partition, prepared=prepared)
            out.append((state.x.tobytes(), state.m.tobytes(), state.t, metrics))
        return out, obj.eval_counter

    seen = Counter()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(list(MutationKind)), st.integers(1, 3), st.integers(1, 5),
           st.integers(2, 6), st.integers(1, 3), st.sampled_from([1, 5, 30, objective.PLAN_ENTRIES]),
           st.sampled_from([1, 45, 100, localsolver.DENSE_BLOCK]), st.data())
    def check(kind, workers, iters, batch_size, rounds, entries, dense_block, data):
        monkeypatch.setattr(objective, "PLAN_ENTRIES", entries)
        monkeypatch.setattr(localsolver, "DENSE_BLOCK", dense_block)
        cfg = make_cfg(workers=workers, rounds=rounds, local_iters=iters, batch_size=batch_size,
                       model=MutationModel(kind, 30, 2))
        partition = partition_uniform(train, workers, RngStream(cfg.seed, "partition"))
        del made[:]
        want = run(cfg, partition, None)
        assert made == list(range(rounds))
        obj = RegularizedObjective(LossKind.LR, train)
        ends = np.cumsum([0] + [len(list(make(cfg, obj, partition, t))) + 1
                                for t in range(1, rounds)])[1:]
        cut = data.draw(st.integers(0, int(ends[-1]) if rounds > 1 else 0), label="lists sent")
        sent = []

        def sending(writer, arrays, ring):
            if len(sent) == cut:
                raise BrokenPipeError  # the helper stops here; its writer closes
            sent.append(arrays)
            send(writer, arrays, ring)

        reader, writer = multiprocessing.Pipe(duplex=False)
        with reader, Ring() as ring:
            monkeypatch.setattr(server, "send_arrays", sending)
            server._send_rounds(cfg, obj, partition, writer, ring)
            monkeypatch.setattr(server, "send_arrays", send)
            del made[:]
            got = run(cfg, partition, reader, ring)
        assert got == want
        assert made == [0, *range(1 + int(np.searchsorted(ends - 1, cut, "right")), rounds)]
        seen[kind] += 1
        seen["cut mid-round"] += cut not in (0, *ends)
        seen["cut at an end mark"] += cut in ends - 1
        seen["several blocks"] += len(sent) > 3 * rounds

    check()
    assert min(seen[k] for k in (*MutationKind, "cut mid-round", "cut at an end mark",
                                 "several blocks")) > 0, seen


# the rounds that the caller makes itself (round 0, and those that show where
# the helper stopped; "before round 0" is before the first round it sends)
PREPARED_HERE = {"exits before round 0": [0, 1, 2, 3, 4], "exits after round 1": [0, 2, 3, 4],
                 "exits mid-round 1": [0, 1, 2, 3, 4], "raises in round 2": [0, 2, 3, 4],
                 "dense, exits mid-round 1": [0, 1, 2, 3, 4]}


@pytest.mark.parametrize("death", PREPARED_HERE)
def test_dead_helper_rounds_prepared_in_process(death, monkeypatch, two_cpus):
    # The helper dies (os._exit) or fails (an exception) part-way; the caller
    # reads EOF and makes the rest itself, from the first list (a head, a
    # plan block or a draw block) it did not receive, so the rows equal a run
    # without a helper.
    train, test = sparse_split(18)
    monkeypatch.setattr(objective, "PLAN_ENTRIES", 20)
    monkeypatch.setattr(localsolver, "DENSE_BLOCK", 2 * 30)  # three draw blocks a round
    cfg = dense_cfg() if death.startswith("dense") else mixture_cfg()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    expected = metric_rows(run_des(cfg, train, test, LossKind.LR))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller = os.getpid()
    blocks_sent, here = [], []  # per round the helper started to send (1..); rounds made here
    send, make = server.send_arrays, server._round_arrays

    def sending(writer, arrays, ring):  # only the helper sends
        # a round's head holds its rows (and a mixture round's cols and
        # terms); a block is six plan arrays, or draws and their products;
        # the empty list that ends a round is not counted
        if not arrays:
            return send(writer, arrays, ring)
        if len(arrays) < len(objective.PlanBlock._fields) and arrays[0].dtype.kind == "i":
            blocks_sent.append(0)
        else:
            blocks_sent[-1] += 1
        at = len(blocks_sent), blocks_sent[-1]  # (round, block), block 0 its head
        if (death == "exits before round 0" or death == "exits after round 1" and at == (2, 0)
                or death.endswith("exits mid-round 1") and at == (1, 2)):
            os._exit(1)
        send(writer, arrays, ring)

    def making(cfg, obj, partition, t):
        if os.getpid() == caller:
            here.append(t)
        elif death == "raises in round 2" and t == 2:
            raise RuntimeError("helper broke")
        return make(cfg, obj, partition, t)

    received = []
    recv = server.recv_arrays
    monkeypatch.setattr(server, "send_arrays", sending)
    monkeypatch.setattr(server, "_round_arrays", making)
    monkeypatch.setattr(server, "recv_arrays", lambda reader, **kw: received.append(1)
                        or recv(reader, **kw))
    got = metric_rows(run_des(cfg, train, test, LossKind.LR))
    assert got == expected
    assert here == PREPARED_HERE[death]
    # the helper's messages were used before it stopped; the last read met EOF
    assert (len(received) == 1) if death == "exits before round 0" else (len(received) >= 2)
    assert multiprocessing.active_children() == []


def test_unforked_helper_rounds_prepared_in_process(monkeypatch, two_cpus):
    # A helper that cannot be forked (EAGAIN under a pid limit, say) is one
    # that died at once: its reader meets EOF and the caller prepares every
    # round, mixture or dense, to the rows of a run without a helper.
    train, test = sparse_split(23)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    expected = [metric_rows(run_des(cfg, train, test, LossKind.LR))
                for cfg in (mixture_cfg(), dense_cfg())]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    refused, forks = refuse_forks(monkeypatch), count_helpers(monkeypatch)
    assert [metric_rows(run_des(cfg, train, test, LossKind.LR, threads=2))
            for cfg in (mixture_cfg(), dense_cfg())] == expected
    assert forks == [1, 1] and len(refused) == 2
    with forked(2, lambda k, writer: None) as pairs:
        assert [child for child, _ in pairs] == [None, None]
        for _, reader in pairs:
            with pytest.raises(EOFError):
                reader.recv_bytes()
    assert len(refused) == 4 and multiprocessing.active_children() == []


@contextmanager
def deadline(seconds: int):
    """Fail the block if it has not ended within seconds (a deadlock, say)."""
    def expired(signum, frame):  # not an OSError, which run_des reads as a dead helper
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_ring
@pytest.mark.parametrize("kind", ["dense", "mixture"])
def test_ring_views_are_not_read_after_release(kind, monkeypatch, two_cpus):
    # The caller releases a round's bytes in the ring once the round has run,
    # and every released byte is overwritten with NaN (all bits set) before
    # the helper hears of it, in a ring that holds one round (about 5.7 KB
    # dense, 1.3 KB mixture) but not two, so that every round wraps to its
    # start: a view of a round read after its release would change the
    # metrics, which equal those of a run without the helper.
    train, test = sparse_split(26)
    cfg, size = (dense_cfg(), 8192) if kind == "dense" else (mixture_cfg(), 2048)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    expected = metric_rows(run_des(cfg, train, test, LossKind.LR))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(processes, "RING_BYTES", size)
    released, release = [], Ring.release

    def poisoned(ring):
        start, stop = ring.released, ring.received
        if stop > start:
            released.append(stop)
        for lap in range(start // size, -(-stop // size)):
            ring.memory[max(start - lap * size, 0):stop - lap * size] = 0xFF
        release(ring)

    monkeypatch.setattr(Ring, "release", poisoned)
    assert metric_rows(run_des(cfg, train, test, LossKind.LR)) == expected
    # rounds 1.. came through the ring, each in a lap of its own; the last
    # is not released, since the run ends after it
    assert [stop // size for stop in released] == list(range(cfg.rounds - 2)), released
    assert multiprocessing.active_children() == []


@needs_ring
@pytest.mark.parametrize("kind", ["dense", "mixture"])
def test_round_larger_than_the_ring(kind, monkeypatch, two_cpus):
    # In a ring of RING bytes no round fits whole: the arrays that do not
    # fit beside their round's bytes come by value, the others through the
    # ring, and the run completes (it cannot wait for itself) to the
    # metrics of a run without the helper.
    train, test = sparse_split(27)
    cfg = dense_cfg() if kind == "dense" else mixture_cfg()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    expected = metric_rows(run_des(cfg, train, test, LossKind.LR))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(processes, "RING_BYTES", RING)
    crossed, recv = Counter(), server.recv_arrays

    def receiving(reader, ring):
        got = recv(reader, ring=ring)
        for a in filter(len, got):
            crossed["through the ring" if np.shares_memory(a, ring.memory) else "by value"] += 1
        return got

    monkeypatch.setattr(server, "recv_arrays", receiving)
    with deadline(60):
        assert metric_rows(run_des(cfg, train, test, LossKind.LR)) == expected
    assert crossed["through the ring"] > 0 and crossed["by value"] > 0, crossed
    assert multiprocessing.active_children() == []


@needs_ring
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_helper_runs_leave_no_descriptor_open(monkeypatch, two_cpus):
    # A run with a helper opens a pipe and a ring's eventfd, and closes both:
    # after 20 such runs, and after one whose helper could not be forked, the
    # same descriptors are open as before.
    train, test = sparse_split(28)
    forks = count_helpers(monkeypatch)
    before = processes._open_fds()
    for k in range(20):
        run_des(dense_cfg(rounds=2) if k % 2 else mixture_cfg(rounds=2), train, test, LossKind.LR)
    assert processes._open_fds() == before and forks == [1] * 20
    refused = refuse_forks(monkeypatch)
    run_des(mixture_cfg(), train, test, LossKind.LR)
    assert len(refused) == 1 and processes._open_fds() == before
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("end", ["non-finite snapshot", "diverged candidate", "max_evals"])
def test_run_ended_early_leaves_no_helper(end, monkeypatch, two_cpus):
    # The run raises, or max_evals stops it, while its helper is still
    # running ahead; run_rounds closes the round generator, which ends the
    # helper before run_des returns or its exception reaches the caller.
    # The helper takes 0.2 s a round, so it cannot have sent all its rounds
    # and exited first.
    train, test = sparse_split(19)
    cfg, reg = mixture_cfg(rounds=8), 1e-6
    caller, make = os.getpid(), server._round_arrays
    monkeypatch.setattr(server, "_round_arrays", lambda *args: (
        os.getpid() != caller and time.sleep(0.2)) or make(*args))
    if end == "non-finite snapshot":
        full = objective.RegularizedObjective.eval_full_and_error
        calls = []

        def eval_full(obj, x):
            calls.append(x)
            loss, err = full(obj, x)
            return (np.inf if len(calls) == 3 else loss), err

        monkeypatch.setattr(objective.RegularizedObjective, "eval_full_and_error", eval_full)
    elif end == "diverged candidate":
        # steps of 1e150 on entries of 1e160 overflow the margins to +-inf
        train = Dataset(train.matrix * 1e160, train.labels)
        cfg, reg = mixture_cfg(alpha=1e150, rounds=8), 0.0
    else:
        cfg = mixture_cfg(rounds=8, max_evals=2 * 3 * 6 * 8)
    children = []
    des_round_ = server.des_round
    monkeypatch.setattr(server, "des_round", lambda *args, **kw: children.append(
        len(multiprocessing.active_children())) or des_round_(*args, **kw))
    with np.errstate(all="ignore"):
        if end == "max_evals":
            assert len(run_des(cfg, train, test, LossKind.LR, reg=reg).rows) == 3
        else:
            with pytest.raises(NonFiniteObjectiveError,
                               match="train loss after round 2" if end == "non-finite snapshot"
                               else "objective returned NaN") as info:
                run_des(cfg, train, test, LossKind.LR, reg=reg)
    assert children[-1] == 1  # the helper was running when the last round started
    # info keeps the traceback, and with it run_rounds's frame and generator, alive
    assert multiprocessing.active_children() == []
    assert end == "max_evals" or info.value is not None


def test_run_des_descends_on_synthetic():
    # End-to-end sanity: a modest budget cuts the logistic loss well below
    # its starting value on separable data.
    full = synth_dataset(SynthKind.SEPARABLE_LINEAR, 10, 600, RngStream(14, "synth"))
    train, test = split_train_test(full, SplitSpec(0.8, RngStream(14, "split")))
    model = MutationModel(MutationKind.STANDARD_GAUSSIAN, 10)
    cfg = make_cfg(workers=4, rounds=25, local_iters=20, batch_size=16,
                   model=model, alpha=1.0, beta=0.5)
    record = run_des(cfg, train, test, LossKind.LR)
    assert record.rows[0].train_loss == np.log(2.0)
    assert record.rows[-1].train_loss < 0.5 * record.rows[0].train_loss
    assert record.rows[-1].train_err < 0.5
    assert record.algorithm == "des"


def test_algo_ids_by_model():
    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(15, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 10, RngStream(16, "synth"))
    for kind, name in [
        (MutationKind.STANDARD_GAUSSIAN, "des"),
        (MutationKind.MIXTURE_GAUSSIAN, "des-mg"),
        (MutationKind.MIXTURE_RADEMACHER, "des-mr"),
    ]:
        cfg = make_cfg(rounds=1, model=MutationModel(kind, 4, 2))
        assert run_des(cfg, train, test, LossKind.LR).algorithm == name


def test_state_initial():
    s = initial_state(3)
    npt.assert_array_equal(s.x, np.zeros(3))
    npt.assert_array_equal(s.m, np.zeros(3))
    assert s.t == 0


def test_run_rounds_drives_a_round_generator(monkeypatch):
    # A stub round generator: row 0 must be snapshotted at x0 before the first
    # next(), exactly as many rounds pulled as rows follow it, and a raise in a
    # round must reach the caller as raised.
    import desopt.server as server

    train = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 40, RngStream(3, "synth"))
    test = synth_dataset(SynthKind.SEPARABLE_LINEAR, 4, 10, RngStream(4, "synth"))
    events = []
    snapshot_error = server.classification_error
    monkeypatch.setattr(server, "classification_error",
                        lambda x, data: events.append("snapshot") or snapshot_error(x, data))
    broke = RuntimeError("round 2 broke")

    def run(expected, fail_at=None, **kw):
        cfg = server.RoundConfig(workers=2, local_iters=1, batch_size=5, alpha=1.0, seed=0, **kw)

        def rounds(obj, partition, x0):
            assert not x0.any() and x0.shape == (4,)
            for t in range(expected + 1):
                assert t < expected, "pulled one round too many"
                if t == fail_at:
                    raise broke
                events.append("round")
                obj.eval_counter += 7
                yield x0 + (t + 1), 7

        events.clear()
        return server.run_rounds("stub", cfg, train, test, LossKind.LR, 0.0, False, "tiny",
                                 rounds, {})

    record = run(3, rounds=3)
    assert events == ["snapshot"] + ["round", "snapshot"] * 3
    assert record.rows[0].train_loss == np.log(2.0)  # LR at the zero point
    assert [r.cum_evals for r in record.rows] == [0, 7, 14, 21]
    record = run(3, rounds=10, max_evals=20)  # 14 < 20 pulls a third round, 21 stops
    assert [r.cum_evals for r in record.rows] == [0, 7, 14, 21]
    record = run(0, rounds=0)
    assert len(record.rows) == 1 and events == ["snapshot"]
    with pytest.raises(RuntimeError) as info:
        run(3, fail_at=2, rounds=3)
    assert info.value is broke and str(info.value) == "round 2 broke"
    assert events == ["snapshot"] + ["round", "snapshot"] * 2
