"""Span tracing: begin/end balance, durations, disabled behavior."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NULL_SPAN, SpanTracer
from repro.simulation.engine import Simulator
from repro.simulation.tracing import TraceLog

from tests.conftest import make_runtime


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


def make_tracer(registry=None):
    return SpanTracer(TraceLog(), _Clock(), registry)


def assert_spans_balanced(trace: TraceLog) -> None:
    """Every span.begin has exactly one span.end with the same id."""
    begins = Counter(r.payload["span"] for r in trace.of_kind("span.begin"))
    ends = Counter(r.payload["span"] for r in trace.of_kind("span.end"))
    assert begins == ends
    assert all(count == 1 for count in begins.values())


class TestSpanBasics:
    def test_instants_record_each_label_set_in_order(self):
        tracer = make_tracer()
        tracer._clock.now = 4.0
        rows = [{"node": 1, "action": "shift"}, {"node": 2, "action": "augment"}]
        tracer.instants("cache.admit", len(rows), iter(rows))
        assert [(r.time, r.kind, r.payload) for r in tracer.trace.records] == [
            (4.0, "span.instant", {"name": "cache.admit", **row}) for row in rows
        ]
        assert tracer.trace.count("span.instant") == 2

    def test_context_manager_emits_balanced_pair(self):
        tracer = make_tracer()
        with tracer.span("election", epoch=1) as span:
            tracer._clock.now = 3.0
        assert span.duration == 3.0
        assert tracer.trace.count("span.begin") == 1
        assert tracer.trace.count("span.end") == 1
        assert_spans_balanced(tracer.trace)

    def test_begin_end_handle_is_idempotent(self):
        tracer = make_tracer()
        handle = tracer.begin("maintenance.round", index=1)
        tracer._clock.now = 5.0
        handle.end()
        handle.end()
        assert tracer.trace.count("span.end") == 1
        assert handle.duration == 5.0
        assert not handle.open

    def test_span_ids_are_unique(self):
        tracer = make_tracer()
        ids = set()
        for _ in range(10):
            span = tracer.begin("q")
            ids.add(span.span_id)
            span.end()
        assert len(ids) == 10

    def test_end_record_carries_labels_and_duration(self):
        tracer = make_tracer()
        span = tracer.begin("query", node=3)
        tracer._clock.now = 1.5
        span.end()
        [end] = tracer.trace.of_kind("span.end")
        assert end.payload["name"] == "query"
        assert end.payload["node"] == 3
        assert end.payload["duration"] == 1.5

    def test_instant_emits_single_record(self):
        tracer = make_tracer()
        tracer.instant("cache.admit", node=2, action="shift")
        assert tracer.trace.count("span.instant") == 1
        assert tracer.trace.count("span.begin") == 0

    def test_registry_accumulates_counts_and_durations(self):
        registry = MetricsRegistry()
        tracer = make_tracer(registry)
        for _ in range(3):
            tracer.begin("election").end()
        assert registry.metric("span.count").value("election") == 3
        cell = registry.metric("span.duration").cell("election")
        assert cell.count == 3


class TestDisabledTracer:
    def test_disabled_instants_emit_nothing(self):
        tracer = make_tracer(MetricsRegistry(enabled=False))
        tracer.instants("cache.admit", 2, iter([{}, {}]))
        assert tracer.trace.counts == Counter()

    def test_disabled_registry_yields_null_span(self):
        registry = MetricsRegistry(enabled=False)
        tracer = make_tracer(registry)
        span = tracer.begin("election")
        assert span is NULL_SPAN
        with tracer.span("query"):
            pass
        tracer.instant("cache.admit")
        assert tracer.trace.counts == Counter()

    def test_reenabling_restores_real_spans(self):
        registry = MetricsRegistry(enabled=False)
        tracer = make_tracer(registry)
        assert tracer.begin("a") is NULL_SPAN
        registry.enabled = True
        span = tracer.begin("a")
        assert span is not NULL_SPAN
        span.end()
        assert_spans_balanced(tracer.trace)


class TestEngineSpans:
    def test_simulator_tracer_uses_sim_time(self):
        simulator = Simulator(seed=1)
        span = simulator.spans.begin("work")
        simulator.schedule(2.5, lambda: None)
        simulator.run()
        span.end()
        assert span.duration == 2.5

    def test_discovery_run_spans_are_balanced(self):
        runtime = make_runtime(keep_trace_records=True)
        runtime.train(duration=10)
        runtime.run_election()
        runtime.start_maintenance()
        runtime.advance_to(runtime.now + 250.0)
        runtime.maintenance.stop()
        trace = runtime.simulator.trace
        assert trace.count("span.begin") > 0
        assert_spans_balanced(trace)

    def test_election_span_brackets_the_round(self):
        runtime = make_runtime(keep_trace_records=True)
        runtime.train(duration=10)
        runtime.run_election()
        [begin] = runtime.simulator.trace.of_kind("span.begin")
        [end] = runtime.simulator.trace.of_kind("span.end")
        assert begin.payload["name"] == "election"
        assert end.payload["duration"] == pytest.approx(
            runtime.coordinator.settle_delay
        )
