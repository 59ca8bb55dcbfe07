"""What one repetition of a workload records.

:class:`RepRecorder` times named phases, submits requests to a
:class:`~repro.serving.QueryFrontEnd` and times each one from the
``submit`` call to the future's completion (in a done-callback, so the
time a generator takes to collect the future is not counted), and
reads the simulated quantities when the repetition ends.

Phases are timed twice: on the wall clock and on the process CPU clock
(every thread's CPU time).  A repetition runs on one CPU, so the two
differ only by the time the CPU was taken from the process; on a
virtual machine that includes time the host gave the CPU to others.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from time import perf_counter, process_time
from typing import Optional

import numpy as np

from repro.serving import AdmissionRejected, QueryFrontEnd

__all__ = ["RepRecorder", "percentile"]


class RepRecorder:
    """Timings, request outcomes and simulated results of one repetition.

    Parameters
    ----------
    tracer:
        The installed :class:`~tracer.Tracer` of a traced repetition,
        or ``None``.
    verify:
        Whether the workload re-executes a sample of served answers.
    """

    def __init__(self, tracer=None, verify: bool = True) -> None:
        self.tracer = tracer
        self.verify = verify
        #: Wall and CPU time per phase.
        self.phases: dict[str, float] = defaultdict(float)
        self.cpu_phases: dict[str, float] = defaultdict(float)
        #: Wall and CPU time inside the timed body spent on checks, not work.
        self.untimed_s = 0.0
        self.untimed_cpu_s = 0.0
        self.setup_s = 0.0
        self.run_s = 0.0
        self.setup_cpu_s = 0.0
        self.run_cpu_s = 0.0
        #: Median CPU time of one reference run during the repetition.
        self.reference_s = 0.0
        #: Self time per layer metric of a traced repetition.
        self.layers: dict[str, float] = {}
        #: ``(request, submitted, completed, served, error)`` in
        #: completion order; appended from the dispatcher thread too.
        self.outcomes: list[tuple] = []
        self.attempted = 0
        self.rejected = 0
        self.failures: list[str] = []
        self.answers_checked = 0
        self.serving_stats: dict = {}
        self.sim: dict = {}

    # -- timing ------------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        start, cpu = perf_counter(), process_time()
        try:
            yield
        finally:
            self.phases[name] += perf_counter() - start
            self.cpu_phases[name] += process_time() - cpu

    @contextmanager
    def untimed(self):
        start, cpu = perf_counter(), process_time()
        try:
            yield
        finally:
            self.untimed_s += perf_counter() - start
            self.untimed_cpu_s += process_time() - cpu

    def attach(self, runtime) -> None:
        """Hook a freshly built runtime into the tracer, if tracing."""
        if self.tracer is not None:
            self.tracer.attach(runtime)

    # -- requests ----------------------------------------------------------

    def submit(self, frontend: QueryFrontEnd, query, sink: int):
        """Submit one request; returns its future, or ``None`` if refused."""
        request = self.attempted
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_request(request)
        submitted = perf_counter()
        try:
            future = frontend.submit(query, sink)
        except AdmissionRejected:
            self.rejected += 1
            return None
        finally:
            if tracer is not None:
                tracer.end_request()
        future.add_done_callback(partial(self._done, request, submitted))
        return future

    def _done(self, request: int, submitted: float, future) -> None:
        completed = perf_counter()
        error = None if future.cancelled() else future.exception()
        if future.cancelled() or error is not None:
            self.outcomes.append((request, submitted, completed, None, error or "cancelled"))
        else:
            self.outcomes.append((request, submitted, completed, future.result(), None))

    def served(self) -> list:
        """Served results, in completion order."""
        return [outcome[3] for outcome in self.outcomes if outcome[3] is not None]

    @property
    def failed(self) -> int:
        """Requests refused at admission or completed with an error."""
        return self.rejected + sum(1 for outcome in self.outcomes if outcome[4] is not None)

    def latencies(self, misses_only: bool = False) -> list[float]:
        """Per-request latency in seconds, submit to completion."""
        return [
            completed - submitted
            for _, submitted, completed, served, _ in self.outcomes
            if served is not None and not (misses_only and served.cached)
        ]

    # -- checks and simulated results -------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def read_sim(self, runtime) -> None:
        """Simulated quantities; a fixed seed must reproduce them exactly."""
        stats = runtime.stats
        served = self.served()
        self.sim = {
            "events": runtime.simulator.events_processed,
            "msgs_per_node_round": runtime.maintenance.average_messages_per_node(),
            "rounds": runtime.maintenance.rounds_completed,
            "snapshot_size": runtime.snapshot().size,
            "coverage": (
                math.fsum(s.result.coverage() for s in served) / len(served)
                if served else None
            ),
            "responders": sum(len(s.result.responders) for s in served if not s.cached),
            "sent": sum(stats.sent.values()),
            "delivered": sum(stats.delivered.values()),
            "dropped": sum(stats.dropped.values()),
            "structure_version": list(runtime.structure_version()),
        }

    def fingerprint(self) -> dict:
        """The part of :attr:`sim` every repetition of a seed must repeat."""
        return {key: value for key, value in self.sim.items() if key != "responders"}


def percentile(values: list[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    return float(np.percentile(values, q)) if values else None
