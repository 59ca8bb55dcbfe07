"""How fast the host runs a fixed piece of Python, sampled throughout a
repetition.

On a shared virtual machine the CPU a repetition runs on is slowed by
work elsewhere on the host, and that slowdown is not reported as stolen
time: identical work took anywhere from 7.5 to 15.5 CPU seconds within an
hour.  :class:`HostSpeed` runs :func:`reference_work` (a small event loop
over a heap, with attribute access, dict updates and allocation, and no
``repro`` code) every :data:`INTERVAL_S` on a thread of the repetition,
so on the same CPU and between the workload's own steps, and times each
run on its thread's CPU clock.  The median of those times says how slow
the host was during the repetition, and :func:`scale` turns it into the
factor that takes the repetition's CPU times to what they would be on a
host where the reference takes :data:`NOMINAL_S`.

The workloads slow down less than the reference does: regressed on
the reference time across repetitions of the same input, log CPU time
has a slope of 0.71 (pipeline-n2000) and 0.69 (serve-n400), over 80 and
160 repetitions, hence :data:`EXPONENT`.  With it, the spread of the
scaled body time over ten seeds fell from 4-11% to 3-5% on both
workloads.

The reference does not touch ``repro``, so a change to the program
moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import heapq
import statistics
import threading
from time import thread_time

__all__ = ["HostSpeed", "NOMINAL_S", "reference_work", "scale"]

#: Seconds between two reference runs.
INTERVAL_S = 0.1
#: CPU time of one :func:`reference_work` on an idle 2.1 GHz x86-64
#: virtual CPU (CPython 3.11): the speed scaled times are expressed at.
NOMINAL_S = 2.0e-3
#: How the workloads' CPU time follows the reference's (see above).
EXPONENT = 0.75
#: Nodes and steps of one reference run.
NODES = 256
STEPS = 1500


class _Node:
    __slots__ = ("ident", "value", "links", "seen")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.value = float(ident % 17)
        self.links: tuple = ()
        self.seen: dict = {}


def scale(reference_s: float) -> float:
    """Factor from CPU seconds measured while the reference took
    ``reference_s`` to CPU seconds at the nominal speed."""
    return (NOMINAL_S / reference_s) ** EXPONENT


def reference_work() -> float:
    """A fixed amount of interpreter work; returns a checksum."""
    nodes = [_Node(i) for i in range(NODES)]
    for node in nodes:
        node.links = tuple(nodes[(node.ident * 37 + k * 101) % NODES] for k in range(6))
    heap = [(float(i), i) for i in range(0, NODES, 8)]
    heapq.heapify(heap)
    for step in range(STEPS):
        now, ident = heapq.heappop(heap)
        node = nodes[ident]
        total = 0.0
        for peer in node.links:
            total += peer.value
            peer.seen[ident] = now
        node.value = total / 6.0
        heapq.heappush(heap, (now + 1.0 + (step % 7) * 0.1, node.links[step % 6].ident))
    return sum(node.value for node in nodes)


class HostSpeed:
    """Times :func:`reference_work` every :data:`INTERVAL_S` on a daemon
    thread, from :meth:`start` until :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and wait for the thread; safe to call twice."""
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = thread_time()
            reference_work()
            self.samples.append(thread_time() - start)

    def median_s(self) -> float:
        """Median CPU time of one reference run."""
        return statistics.median(self.samples)
