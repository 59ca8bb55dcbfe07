"""Observability: metrics registry, span tracing, profiling, run reports.

The measurement substrate every experiment and perf PR reads from:

* :class:`~repro.obs.registry.MetricsRegistry` — labeled counters,
  gauges, and fixed-bucket histograms with an O(1) record path and a
  guarded near-zero-cost fast path when disabled;
* :class:`~repro.obs.spans.SpanTracer` — sim-time spans (election
  rounds, maintenance rounds, query executions) layered on the trace
  log as balanced begin/end records;
* :class:`~repro.obs.profiler.EventProfiler` — wall-clock time per
  event kind in the simulation engine, with a top-K hot-handler view;
* :class:`~repro.obs.report.RunReport` — any run rendered to
  JSONL/CSV plus a human summary (``repro report`` on the CLI).
"""

from repro.obs.profiler import EventProfiler, ProfileEntry
from repro.obs.registry import (
    CounterMetric,
    GaugeMetric,
    HistogramCell,
    HistogramMetric,
    MetricsRegistry,
)
from repro.obs.report import RunReport
from repro.obs.spans import NULL_SPAN, Span, SpanTracer

__all__ = [
    "MetricsRegistry",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "HistogramCell",
    "SpanTracer",
    "Span",
    "NULL_SPAN",
    "EventProfiler",
    "ProfileEntry",
    "RunReport",
]
