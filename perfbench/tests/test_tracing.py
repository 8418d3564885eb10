"""Span arithmetic: self time, re-entrant totals, overhead, patching.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
import types

import pytest

import tracing
from tracing import (
    LayerStats,
    Tracer,
    attribute,
    instrument,
    overhead,
    self_times,
)


def span(name, start, end, parent=-1, run=0):
    return [name, float(start), float(end), parent, run]


def test_nested_self_time_subtracts_only_direct_children():
    spans = [
        span("request", 0, 10),
        span("core.router", 2, 8, parent=0),
        span("lee", 3, 7, parent=1),
        span("single_layer.vias", 4, 5, parent=2),
        span("single_layer.vias", 5.5, 6.5, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4, 2, 2, 1, 1])


def test_lee_and_optimal_children_split_router_time():
    # route -> optimal -> trace, then route -> lee -> reachable_vias.
    spans = [
        span("core.router", 0, 20),
        span("optimal.zero_via", 1, 4, parent=0),
        span("single_layer.trace", 1.5, 3.5, parent=1),
        span("lee", 5, 15, parent=0),
        span("single_layer.vias", 6, 9, parent=3),
        span("single_layer.trace", 10, 11, parent=3),
    ]
    stats = LayerStats(spans)
    assert stats.self_of("core.router") == pytest.approx(20 - 3 - 10)
    assert stats.self_of("optimal.zero_via") == pytest.approx(1)
    assert stats.self_of("lee") == pytest.approx(10 - 3 - 1)
    assert stats.total_of("single_layer.trace") == pytest.approx(3)
    assert stats.calls["single_layer.trace"] == 2
    # Self times partition the root's interval exactly.
    assert sum(self_times(spans)) == pytest.approx(20)


def test_reentrant_span_counts_its_interval_once():
    # A parallel route whose serial residue is itself a route.
    spans = [
        span("core.router", 0, 10),
        span("parallel.wave", 1, 4, parent=0),
        span("core.router", 5, 9, parent=0),
        span("lee", 6, 8, parent=2),
    ]
    stats = LayerStats(spans)
    assert stats.calls["core.router"] == 2
    assert stats.total_of("core.router") == pytest.approx(10)
    assert stats.durations["core.router"] == pytest.approx([10])
    assert stats.self_of("core.router") == pytest.approx((10 - 3 - 4) + (4 - 2))
    assert stats.total_of("lee") == pytest.approx(2)


def test_reentrant_through_another_layer_is_still_inner():
    spans = [
        span("lee", 0, 10),
        span("single_layer.vias", 1, 9, parent=0),
        span("lee", 2, 3, parent=1),
    ]
    stats = LayerStats(spans)
    assert stats.total_of("lee") == pytest.approx(10)
    assert stats.self_of("lee") == pytest.approx(2 + 1)


def test_attribution_partitions_the_root_layer():
    spans = [
        span("request", 0, 30),
        span("io.load", 0, 5, parent=0),
        span("core.router", 5, 25, parent=0),
        span("core.router", 10, 20, parent=2),
        span("lee", 12, 18, parent=3),
        span("single_layer.vias", 13, 16, parent=4),
        span("verify.drc", 25, 30, parent=0),
    ]
    shares = attribute(spans, "core.router")
    assert shares == pytest.approx(
        {"core.router": 10 + 4, "lee": 3, "single_layer.vias": 3}
    )
    assert sum(shares.values()) == pytest.approx(
        LayerStats(spans).total_of("core.router")
    )


def test_overlapping_children_are_covered_once():
    spans = [
        span("request", 0, 10),
        span("a", 1, 5, parent=0),
        span("b", 3, 7, parent=0),
        span("c", 12, 15, parent=0),  # outside the parent: ignored
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 6)


def test_overhead_is_share_of_untraced_median():
    assert overhead([1.2, 1.1, 1.3], [1.0, 0.9, 1.1]) == pytest.approx(0.2)
    assert overhead([0.95], [1.0]) == pytest.approx(-0.05)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrap_records_parents_outcomes_and_recursion(monkeypatch):
    monkeypatch.setattr(tracing.time, "perf_counter", FakeClock())
    tracer = Tracer()

    def lee(depth):
        return depth if depth == 0 else traced_lee(depth - 1)

    traced_lee = tracer.wrap(lee, "lee", outcome=lambda result: result == 0)
    tracer.run = 7
    with tracer.span("request"):
        assert traced_lee(2) == 0
    rows = tracer.rows()
    assert [row[0] for row in rows] == ["request", "lee", "lee", "lee"]
    assert [row[3] for row in rows] == [-1, 0, 1, 2]
    assert {row[4] for row in rows} == {7}
    # Every wrapped call returned 0 from the innermost frame.
    assert tracer.outcomes["lee.ok"] == 3
    stats = LayerStats(rows)
    assert stats.calls["lee"] == 3
    assert stats.durations["lee"] == [rows[1][2] - rows[1][1]]


def test_rows_rebase_parents_to_the_range(monkeypatch):
    monkeypatch.setattr(tracing.time, "perf_counter", FakeClock())
    tracer = Tracer()
    with tracer.span("request"):
        pass
    start = len(tracer)
    with tracer.span("request"):
        with tracer.span("io.save"):
            pass
    rows = tracer.rows(start)
    assert [row[3] for row in rows] == [-1, 0]


def test_instrument_patches_and_restores(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Cache:
        def lookup(self, key):
            return key * 2

    def search(x):
        return x + 1

    module.Cache = Cache
    module.search = search
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    patches = (
        ("fake_layer", "search", "lee", None),
        ("fake_layer", "Cache.lookup", "bounds", None),
    )
    tracer = Tracer()
    with instrument(tracer, patches):
        assert module.search(1) == 2
        assert module.Cache().lookup(3) == 6
    assert module.search is search
    assert module.Cache.__dict__["lookup"].__name__ == "lookup"
    assert [row[0] for row in tracer.rows()] == ["lee", "bounds"]


def test_instrument_restores_after_an_error(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.search = lambda: None
    original = module.search
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    with pytest.raises(RuntimeError):
        with instrument(Tracer(), (("fake_layer", "search", "lee", None),)):
            raise RuntimeError("boom")
    assert module.search is original
