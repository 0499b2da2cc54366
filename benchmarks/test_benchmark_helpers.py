"""Tests for the benchmark's own helpers.

    python3 -m pytest benchmarks -q
"""
from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from measure import MIN_BEYOND, Tally, rows_digest, tail_percentile  # noqa: E402
from tracing import Recorder, Span, covered, installed, self_times  # noqa: E402


def test_tail_keeps_min_beyond_samples_above_it():
    tail = tail_percentile(range(100))
    assert tail.value == 89.0
    assert tail.beyond == MIN_BEYOND
    assert tail.percentile == pytest.approx(90.0)
    assert tail.samples == 100


def test_tail_steps_down_past_ties():
    samples = [1.0] * 50 + [5.0] * 5 + [9.0] * 8
    tail = tail_percentile(samples)
    assert tail.value == 1.0
    assert tail.beyond == 13
    assert tail.percentile == pytest.approx(100.0 * 50 / 63)


def test_tail_with_too_few_samples_reports_the_maximum_unresolved():
    tail = tail_percentile([3.0, 1.0, 2.0])
    assert (tail.value, tail.percentile, tail.beyond) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_digest_ignores_wall_ms_only():
    header = ["algo", "round", "train_loss", "wall_ms"]
    base = [["des", 0, 0.5, 1.0], ["des", 1, 0.4, 2.0]]
    retimed = [["des", 0, 0.5, 7.0], ["des", 1, 0.4, 0.0]]
    changed = [["des", 0, 0.5, 1.0], ["des", 1, 0.41, 2.0]]
    assert rows_digest(header, base) == rows_digest(header, retimed)
    assert rows_digest(header, base) != rows_digest(header, changed)
    assert rows_digest(header, base) != rows_digest(header, base[:1])


def test_tally_counts_an_operation_once_however_many_checks_fail():
    tally = Tally()
    tally.record([])
    tally.record(["non-finite train loss", "digest differs"])
    tally.record([])
    tally.record(["exit 2"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert len(tally.problems) == 3
    assert Tally().failed_frac == 0.0


def test_covered_merges_overlaps():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert covered([]) == 0.0


def test_self_time_counts_overlapping_children_from_two_threads_once():
    parent = Span(0, "server.des_round", 0.0, 10.0, None, "r/0", 1)
    spans = [
        parent,
        Span(1, "localsolver.run_local_es", 1.0, 6.0, 0, "r/0", 2),
        Span(2, "localsolver.run_local_es", 4.0, 8.0, 0, "r/0", 3),
        Span(3, "objective.value", 9.5, 12.0, 0, "r/0", 2),  # clipped to the parent
        Span(4, "objective.value", 2.0, 3.0, 1, "r/0", 2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 0.5)
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def test_recorder_parents_pool_threads_on_the_installing_thread():
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.01))

    def fork():
        workers = [threading.Thread(target=inner) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    recorder.run = "op/0"
    recorder.wrap("outer", fork)()
    outer = next(s for s in recorder.spans if s.name == "outer")
    inners = [s for s in recorder.spans if s.name == "inner"]
    assert len(inners) == 2
    assert all(s.parent == outer.sid and s.run == "op/0" for s in inners)
    assert len({s.thread for s in inners} | {outer.thread}) == 3
    assert self_times(recorder.spans)[outer.sid] < outer.duration


def test_installed_wraps_and_restores_package_functions():
    import desopt.objective as objective
    import desopt.server as server

    original_round, original_value = server.des_round, objective.BatchView.value
    with installed(Recorder()):
        assert server.des_round is not original_round
        assert objective.BatchView.value is not original_value
    assert server.des_round is original_round
    assert objective.BatchView.value is original_value


def test_benchmark_json_lists_exactly_the_reported_metrics_and_workloads():
    import run
    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
