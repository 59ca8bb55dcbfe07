"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions of ``repro``'s layers while it is
installed and restores them when it is removed; nothing under ``src/``
knows it exists.  Every wrapped call opens a frame on a per-thread
stack, so each name gets an inclusive and a *self* time (inclusive
minus the wrapped calls nested inside it).  Three kinds of wrapper:

* ``agg`` — per-message calls (``NetworkNode.deliver``,
  ``observe_lanes``, ...): per-name aggregate timers only, so the cost
  per call stays two clock reads and a few list operations;
* ``span`` — per-request query and serving calls: aggregate timers plus
  one span ``(name, start, end, parent, request id, thread, cpu)`` kept
  in memory and written out when the run ends.  Their times are the
  calling thread's CPU time: the generator and the front end's
  dispatcher share one interpreter, and a wall clock would charge one
  thread for the time it waits for the runtime lock or the interpreter
  while the other one works.  (Per-message calls run only on the
  engine's thread while nothing else is runnable, so for them wall
  time is CPU time, at a fifth of the clock cost);
* ``driver`` — the simulation drivers (``train``, ``run_election``,
  ``advance_to``).  Event handler time comes from the engine's own
  :class:`~repro.obs.profiler.EventProfiler`
  (``Simulator.enable_profiling``); wrapped calls made inside a handler
  are subtracted from it, so handler times are self times too.

:meth:`Tracer.layers` turns the totals into one self time per layer.
With the part no layer claims they add up to the traced window.
"""

from __future__ import annotations

import threading
from time import perf_counter, thread_time
from typing import Callable, Optional

from repro.core.round_batch import BatchedObservationRouter
from repro.core.runtime import SnapshotRuntime
from repro.models.cache_manager import ModelAwareCache
from repro.models.soa import ACTION_CODES, ModelAwareCacheFleet
from repro.network.node import NetworkNode
from repro.network.radio import Radio
from repro.obs.profiler import kind_of
from repro.query.executor import QueryExecutor
from repro.query.planner import QueryPlanner
from repro.serving.cache import EpochResultCache
from repro.serving.frontend import QueryFrontEnd

__all__ = ["Tracer", "SELF_TIME_METRICS"]

_REJECT = ACTION_CODES["reject"]

#: Event kinds (label prefix before ``:``) and the layer metric their
#: handler self time is charged to.  Kinds not listed go to
#: ``core.other_events_s`` (training ticks, fault injection, ...).
EVENT_LAYERS = {
    "deliver": "network.fanout_self_s",
    "election": "core.election_s",
    "ack": "core.election_s",
    "rule4": "core.election_s",
    "maintenance": "core.maintenance_s",
    "offer-flush": "core.maintenance_s",
    "reelect-select": "core.maintenance_s",
    "hb-timeout": "core.maintenance_s",
    "resign-cooldown": "core.maintenance_s",
}

#: Wrapped function name -> the layer metric its self time is charged to.
_NAME_LAYERS = {
    "Radio.broadcast": "network.send_s",
    "Radio.unicast": "network.send_s",
    "NetworkNode.deliver": "core.handler_s",
    "BatchedObservationRouter.flush": "core.router_flush_self_s",
    "BatchedObservationRouter.before_event": "core.router_flush_self_s",
    "ModelAwareCacheFleet.observe_lanes": "models.observe_s",
    "ModelAwareCache.observe": "models.observe_s",
    "QueryPlanner.plan": "query.plan_s",
    "QueryPlanner.rewrite": "query.plan_s",
    "QueryPlanner.estimate_cost": "query.plan_s",
    "QueryExecutor.build_tree": "query.tree_s",
    "QueryExecutor.execute": "query.execute_self_s",
    "EpochResultCache.get": "serving.probe_s",
    "SnapshotRuntime.structure_version": "serving.probe_s",
    "QueryFrontEnd.submit": "serving.submit_self_s",
}

#: Self-time metrics that partition the traced window, in report order.
SELF_TIME_METRICS = (
    "simulation.engine_self_s",
    "network.send_s",
    "network.fanout_self_s",
    "core.handler_s",
    "core.election_s",
    "core.maintenance_s",
    "core.other_events_s",
    "core.router_flush_self_s",
    "models.observe_s",
    "query.plan_s",
    "query.tree_s",
    "query.execute_self_s",
    "serving.probe_s",
    "serving.submit_self_s",
)


class _ThreadState:
    """One thread's frame stack and totals (merged when the run ends)."""

    __slots__ = ("stack", "totals", "event_children", "request", "orphans",
                 "observations", "rejects")

    def __init__(self) -> None:
        #: Open frames: ``[child_seconds, is_driver, name]``.
        self.stack: list[list] = []
        #: name -> ``[inclusive_s, self_s, calls]``.
        self.totals: dict[str, list] = {}
        #: Inclusive time of wrapped calls made directly from the event
        #: handler now running; the profiler hook subtracts and resets it.
        self.event_children = 0.0
        #: Request id the benchmark is submitting on this thread, if any.
        self.request: Optional[int] = None
        #: Spans of this thread still waiting for a request id.
        self.orphans: list[list] = []
        self.observations = 0
        self.rejects = 0


class Tracer:
    """Timing wrappers around the layers' public functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[type, str, Callable]] = []
        #: Per-request spans ``[name, start, end, parent, request, thread,
        #: cpu_s]``; start and end are wall seconds since construction.
        self.spans: list[list] = []
        #: Event kind -> ``[handler_self_s, events]`` from the profiler hook.
        self.events: dict[str, list] = {}
        #: Planned query object id -> ``(request id, query)``; the query is
        #: kept alive so its id cannot be reused.
        self._planned: dict[int, tuple[int, object]] = {}
        self.origin = perf_counter()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every traced function; call :meth:`remove` to undo."""
        agg, span, driver = "agg", "span", "driver"
        targets = [
            (SnapshotRuntime, "train", driver),
            (SnapshotRuntime, "run_election", driver),
            (SnapshotRuntime, "advance_to", driver),
            (Radio, "broadcast", agg),
            (Radio, "unicast", agg),
            (NetworkNode, "deliver", agg),
            (BatchedObservationRouter, "flush", agg),
            (BatchedObservationRouter, "before_event", "barrier"),
            (ModelAwareCacheFleet, "observe_lanes", agg),
            (ModelAwareCache, "observe", agg),
            (QueryPlanner, "plan", span),
            (QueryPlanner, "rewrite", span),
            (QueryPlanner, "estimate_cost", span),
            (QueryExecutor, "build_tree", span),
            (QueryExecutor, "execute", span),
            (EpochResultCache, "get", span),
            (SnapshotRuntime, "structure_version", span),
            (QueryFrontEnd, "submit", span),
        ]
        for owner, attr, mode in targets:
            original = owner.__dict__[attr]
            name = f"{owner.__name__}.{attr}"
            setattr(owner, attr, self._wrap(name, original, mode))
            self._patches.append((owner, attr, original))
        return self

    def remove(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def attach(self, runtime: SnapshotRuntime) -> None:
        """Profile ``runtime``'s event handlers through the engine profiler."""
        profiler = runtime.simulator.enable_profiling()
        record = profiler.record
        events = self.events
        state = self._state

        def charged_record(label: str, seconds: float) -> None:
            record(label, seconds)
            st = state()
            inside = st.event_children
            st.event_children = 0.0
            entry = events.get(kind_of(label))
            if entry is None:
                entry = events[kind_of(label)] = [0.0, 0]
            entry[0] += seconds - inside
            entry[1] += 1

        profiler.record = charged_record

    # ------------------------------------------------------------------
    # per-request context
    # ------------------------------------------------------------------

    def begin_request(self, request: int) -> None:
        """Tag the calls this thread makes next with ``request``."""
        self._state().request = request

    def end_request(self) -> None:
        self._state().request = None

    # ------------------------------------------------------------------
    # the wrappers
    # ------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name: str, fn: Callable, mode: str) -> Callable:
        state = self._state
        is_driver = mode == "driver"
        is_barrier = mode == "barrier"
        is_span = mode == "span"
        after = self._after_hooks().get(name)

        clock = thread_time if is_span else perf_counter

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            frame = [0.0, is_driver, name]
            if is_driver:
                # Calls made before the first event are not inside one.
                st.event_children = 0.0
            stack.append(frame)
            if is_span:
                wall = perf_counter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inclusive = end - start
                totals = st.totals.get(name)
                if totals is None:
                    totals = st.totals[name] = [0.0, 0.0, 0]
                totals[0] += inclusive
                totals[1] += inclusive - frame[0]
                totals[2] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += inclusive
                    if parent[1] and not is_barrier:
                        st.event_children += inclusive
                elif not is_barrier:
                    st.event_children += inclusive
                if is_driver:
                    st.event_children = 0.0
                if is_span:
                    self._span(st, name, wall, inclusive, stack, args)
            if after is not None:
                after(st, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _after_hooks(self) -> dict[str, Callable]:
        planned = self._planned

        def count_lanes(st, args, codes) -> None:
            st.observations += int(codes.size)
            st.rejects += int((codes == _REJECT).sum())

        def count_one(st, args, action) -> None:
            st.observations += 1
            st.rejects += action == "reject"

        def remember_planned(st, args, query) -> None:
            if st.request is not None:
                planned[id(query)] = (st.request, query)

        return {
            "ModelAwareCacheFleet.observe_lanes": count_lanes,
            "ModelAwareCache.observe": count_one,
            "QueryPlanner.rewrite": remember_planned,
        }

    def _span(self, st, name, wall, cpu_s, stack, args) -> None:
        parent = stack[-1][2] if stack else None
        request = st.request
        if request is None and name == "QueryExecutor.execute":
            known = self._planned.get(id(args[1]))
            if known is not None:
                request = known[0]
        span = [name, wall - self.origin, perf_counter() - self.origin, parent,
                request, threading.get_ident(), cpu_s]
        self.spans.append(span)
        if request is not None:
            # Dispatcher-side calls that ran before this request's execute
            # (probe, tree build) belong to it.
            for orphan in st.orphans:
                orphan[4] = request
            st.orphans.clear()
        else:
            st.orphans.append(span)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> ``[inclusive_s, self_s, calls]`` over every thread."""
        merged: dict[str, list] = {}
        for st in self._states:
            for name, (inclusive, self_s, calls) in st.totals.items():
                entry = merged.setdefault(name, [0.0, 0.0, 0])
                entry[0] += inclusive
                entry[1] += self_s
                entry[2] += calls
        return merged

    def model_decisions(self) -> tuple[int, int]:
        """(observations, rejects) over every thread."""
        return (
            sum(st.observations for st in self._states),
            sum(st.rejects for st in self._states),
        )

    def layers(self, window_s: float) -> dict[str, float]:
        """Self time per layer metric, plus ``trace.unclaimed_s``.

        The engine's self time is what the drivers spent outside any
        event handler and outside any wrapped call.  The values add up
        to ``window_s`` by construction; ``trace.unclaimed_s`` is the
        wall time no layer claims (deployment, benchmark glue, threads
        waiting).
        """
        layer = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        totals = self.totals()
        drivers_self = sum(
            totals.get(f"SnapshotRuntime.{attr}", (0.0, 0.0, 0))[1]
            for attr in ("train", "run_election", "advance_to")
        )
        handlers_self = 0.0
        for kind, (self_s, _) in self.events.items():
            layer[EVENT_LAYERS.get(kind, "core.other_events_s")] += self_s
            handlers_self += self_s
        layer["simulation.engine_self_s"] = drivers_self - handlers_self
        for name, (_, self_s, _) in totals.items():
            metric = _NAME_LAYERS.get(name)
            if metric is not None:
                layer[metric] += self_s
        layer["trace.unclaimed_s"] = window_s - sum(
            layer[metric] for metric in SELF_TIME_METRICS
        )
        return layer

    def request_spans(self) -> dict[int, dict[str, float]]:
        """request id -> summed span CPU time per wrapped name."""
        by_request: dict[int, dict[str, float]] = {}
        for name, _, _, _, request, _, cpu_s in self.spans:
            if request is None:
                continue
            durations = by_request.setdefault(request, {})
            durations[name] = durations.get(name, 0.0) + cpu_s
        return by_request
