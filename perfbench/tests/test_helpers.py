"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.stats import (digest_number, flow_failures,  # noqa: E402
                             median, model_digest, percentile,
                             tail_percentile)
from perfbench.tracing import (Frame, Patcher, Span,  # noqa: E402
                               SpanRecorder, fold_self_times)


# ------------------------------------------------------------ self time
def test_fold_nested_children():
    spans = [Span(1, None, "sim", 0, 100),
             Span(2, 1, "net.switch", 10, 40),
             Span(3, 2, "net.port", 20, 30),
             Span(4, 1, "rnic", 50, 70)]
    assert fold_self_times(spans) == {"sim": 50, "net.switch": 20,
                                      "net.port": 10, "rnic": 20}


def test_fold_overlapping_children_counted_once():
    spans = [Span(1, None, "runner", 0, 100),
             Span(2, 1, "runner.point", 10, 50),
             Span(3, 1, "runner.point", 30, 60),   # overlaps span 2
             Span(4, 1, "runner.point", 40, 45)]   # inside span 2
    totals = fold_self_times(spans)
    assert totals["runner"] == 100 - 50          # union [10, 60)
    assert totals["runner.point"] == 40 + 30 + 5


def test_fold_clips_children_to_parent():
    spans = [Span(1, None, "a", 0, 10), Span(2, 1, "b", 5, 20)]
    assert fold_self_times(spans)["a"] == 5


def test_frame_ignores_child_already_covered():
    frame = Frame(0)
    frame.cover(0, 10)
    frame.cover(2, 8)
    frame.cover(9, 12)
    assert frame.child_ns == 12


def test_recorder_self_time_matches_fold():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder()
    import perfbench.tracing as tracing
    real = tracing.time.perf_counter_ns
    tracing.time.perf_counter_ns = lambda: next(ticks)
    try:
        inner = recorder.wrap("inner", lambda: None)
        outer = recorder.wrap("outer", lambda: (inner(), inner()))
        outer()
    finally:
        tracing.time.perf_counter_ns = real
    # Clock: outer 0..50, inner 10..20 and 30..40.
    assert recorder.calls == {"outer": 1, "inner": 2}
    assert recorder.self_ns == {"outer": 30, "inner": 20}


def test_patcher_wraps_defining_class_once_and_restores():
    class Base:
        def f(self):
            return 1

    class A(Base):
        pass

    class B(Base):
        pass

    original = Base.__dict__["f"]
    patcher = Patcher()
    for cls in (A, B):
        patcher.patch(cls, "f", lambda fn: lambda self: fn(self) + 1)
    assert A().f() == 2 and B().f() == 2
    patcher.restore()
    assert Base.__dict__["f"] is original


# ------------------------------------------------------- order stats
def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_tail_percentile_needs_ten_beyond():
    assert tail_percentile([1.0] * 99) is None
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(10_000)))[0] == 99.9


# ---------------------------------------------------- flow failures
def test_flow_failures_counts_incomplete_and_wrong_bytes():
    records = [
        {"completed": True, "rx_bytes": 1000, "size_bytes": 1000},
        {"completed": False, "rx_bytes": 500, "size_bytes": 1000},
        {"completed": True, "rx_bytes": 1200, "size_bytes": 1000},
    ]
    assert flow_failures(records) == (3, 2)
    assert flow_failures([]) == (0, 0)


def test_flow_failures_on_flow_objects():
    from repro.rnic.base import Flow

    done = Flow(0, 1, 2000, 0, flow_id=1)
    done.deliver(2000, 50)
    stalled = Flow(0, 1, 2000, 0, flow_id=2)
    stalled.deliver(1000, 50)
    assert flow_failures([done, stalled]) == (2, 1)


# ----------------------------------------------------------- digest
def test_digest_ignores_host_time_and_key_order():
    a = [{"hosts": 4, "wall_s": 0.5, "flows": [{"fct_ns": 10}]}]
    b = [{"flows": [{"fct_ns": 10}], "wall_s": 9.9, "hosts": 4}]
    assert model_digest(a) == model_digest(b)


def test_digest_sees_model_changes():
    a = [{"hosts": 4, "flows": [{"fct_ns": 10}]}]
    b = [{"hosts": 4, "flows": [{"fct_ns": 11}]}]
    assert model_digest(a) != model_digest(b)
    assert digest_number(model_digest(a)) < 2 ** 53


def test_digest_stable_across_reruns_of_a_point():
    from repro.experiments.common import NetworkSpec
    from repro.runner.points import simulate_flows

    spec = NetworkSpec(transport="dcp", topology="testbed", num_hosts=4,
                       cross_links=2, link_rate=10.0, loss_rate=0.01,
                       seed=3)
    params = {"flows": [[0, 2, 50_000, 0]]}
    assert (model_digest([simulate_flows(spec, params)])
            == model_digest([simulate_flows(spec, params)]))
