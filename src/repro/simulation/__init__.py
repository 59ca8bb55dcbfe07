"""Discrete-event simulation substrate.

The paper evaluates snapshot queries in a custom network simulator
(§6: "We have developed a network simulator that allows us to vary
several operational characteristics of the nodes...").  This subpackage
is that simulator's core: a deterministic event queue, monotonic
simulated time, named seeded random streams and a trace log.
"""

from repro.simulation.engine import PeriodicTask, Simulator
from repro.simulation.events import Event, EventQueue
from repro.simulation.rng import RandomSource
from repro.simulation.tracing import TraceLog, TraceRecord

__all__ = [
    "Event",
    "EventQueue",
    "PeriodicTask",
    "RandomSource",
    "Simulator",
    "TraceLog",
    "TraceRecord",
]
