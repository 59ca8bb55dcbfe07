"""Span tracing layered on the :class:`~repro.simulation.tracing.TraceLog`.

A *span* is a named interval of simulated time — an election round, a
maintenance round, a query execution.  Opening a span emits a
``span.begin`` trace record and closing it emits ``span.end`` with the
sim-time duration, so any observer of the trace log sees a queryable
timeline; the registry additionally accumulates per-name counts and a
duration histogram for the run report.

Spans come in three shapes:

* ``with tracer.span("query", node=3): ...`` — synchronous work;
* ``handle = tracer.begin("election", epoch=2)`` ... ``handle.end()``
  — work spread over scheduled events (the coordinator opens the span
  at the invitation phase and closes it when modes settle);
* ``tracer.instant("cache.observe", node=3, action="shift")`` — a
  zero-duration event for hot-path occurrences where a begin/end pair
  would be pure noise.

Every ``begin`` is guaranteed a matching ``end`` with the same unique
``span`` id (``end`` is idempotent), which is the balance invariant the
chaos-matrix tests assert.  When the owning registry is disabled the
tracer hands out a shared no-op span and emits nothing.

Example
-------

>>> from repro.obs.registry import MetricsRegistry
>>> from repro.simulation.tracing import TraceLog
>>> class _Clock:
...     now = 0.0
>>> clock = _Clock()
>>> tracer = SpanTracer(TraceLog(), clock, MetricsRegistry())
>>> with tracer.span("election", epoch=1):
...     clock.now = 2.5
>>> tracer.trace.count("span.begin"), tracer.trace.count("span.end")
(1, 1)
>>> tracer.trace.of_kind("span.end")[0].payload["duration"]
2.5
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.registry import MetricsRegistry

__all__ = ["Span", "SpanTracer", "NULL_SPAN"]

#: Sim-time duration buckets of the ``span.duration`` histogram.  The
#: paper's runs span four decades of time units (phase spacings ~1,
#: heartbeat periods ~100, lifetimes ~10k).
DURATION_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)


class Span:
    """An open interval; ``end()`` closes it (idempotently)."""

    __slots__ = ("_tracer", "span_id", "name", "labels", "started_at", "ended_at")

    def __init__(
        self, tracer: "SpanTracer", span_id: int, name: str, labels: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.labels = labels
        self.started_at = tracer.now()
        self.ended_at: Optional[float] = None

    @property
    def open(self) -> bool:
        """Whether the span has not been ended yet."""
        return self.ended_at is None

    @property
    def duration(self) -> Optional[float]:
        """Sim-time length, or ``None`` while still open."""
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    def end(self) -> None:
        """Close the span; emits ``span.end``.  Safe to call twice."""
        if self.ended_at is not None:
            return
        self.ended_at = self._tracer.now()
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()
    span_id = -1
    name = ""
    labels: dict[str, Any] = {}
    started_at = 0.0
    ended_at = 0.0
    open = False
    duration = 0.0

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class SpanTracer:
    """Emits begin/end/instant span records into a trace log.

    Parameters
    ----------
    trace:
        The pub/sub sink begin/end records go to.
    clock:
        Anything with a ``now`` attribute in simulated time (the
        engine passes itself).
    registry:
        Optional metrics registry; when given, span counts and duration
        histograms accumulate there, and the registry's ``enabled``
        flag gates the tracer entirely.
    """

    def __init__(self, trace, clock, registry: Optional[MetricsRegistry] = None) -> None:
        self.trace = trace
        self._clock = clock
        self._registry = registry
        self._next_id = 0
        if registry is not None:
            self._count = registry.counter("span.count", labels=("name",))
            self._durations = registry.histogram(
                "span.duration", DURATION_BUCKETS, labels=("name",)
            )
        else:
            self._count = None
            self._durations = None

    @property
    def enabled(self) -> bool:
        """Whether spans are being recorded (follows the registry)."""
        return self._registry is None or self._registry.enabled

    def now(self) -> float:
        """Current simulated time."""
        return self._clock.now

    def span(self, name: str, **labels: Any) -> Span | _NullSpan:
        """Open a span for a ``with`` block; closed on exit."""
        return self.begin(name, **labels)

    def begin(self, name: str, **labels: Any) -> Span | _NullSpan:
        """Open a span now; the caller must ``end()`` it.

        Emits ``span.begin`` with a unique ``span`` id, the name, and
        the labels; the matching ``span.end`` carries the same id.
        """
        if not self.enabled:
            return NULL_SPAN
        self._next_id += 1
        span = Span(self, self._next_id, name, labels)
        self.trace.emit(
            span.started_at, "span.begin", span=span.span_id, name=name, **labels
        )
        return span

    def instant(self, name: str, **labels: Any) -> None:
        """Emit a single zero-duration ``span.instant`` record."""
        self.instants(name, 1, (labels,))

    def instants(self, name: str, count: int, labels) -> None:
        """Emit ``count`` ``span.instant`` records of ``name`` at once.

        ``labels`` yields each record's label dict, in order; it is
        consumed only if the trace log keeps or forwards the records,
        so a bulk emission that nobody reads costs one counter update.
        """
        if not self.enabled or not count:
            return
        self.trace.emit_many(
            self._clock.now,
            "span.instant",
            count,
            ({"name": name, **row} for row in labels),
        )

    def _finish(self, span: Span) -> None:
        duration = span.ended_at - span.started_at
        self.trace.emit(
            span.ended_at,
            "span.end",
            span=span.span_id,
            name=span.name,
            duration=duration,
            **span.labels,
        )
        if self._count is not None:
            self._count.inc(span.name)
            self._durations.observe(duration, span.name)
