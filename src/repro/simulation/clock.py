"""Simulated clock.

The clock is owned by the :class:`~repro.simulation.engine.Simulator` and
only ever advances (monotonically) as events are processed.  Components
hold a reference to the clock instead of the whole simulator when all they
need is the current time — e.g. the snapshot protocol stamps elections
with ``clock.now`` to detect *spurious representatives* (paper §3).
"""

from __future__ import annotations

__all__ = ["SimulationClock"]


class SimulationClock:
    """Monotonic simulated time source measured in abstract time units."""

    def __init__(self, start: float = 0.0) -> None:
        if not start >= 0:  # NaN fails too
            raise ValueError(f"clock cannot start at {start}: negative or NaN")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises
        ------
        ValueError
            If ``time`` lies in the past (simulated time never rewinds)
            or is NaN.
        """
        if not time >= self._now:  # NaN fails too
            raise ValueError(f"cannot move clock from {self._now} to {time}")
        self._now = float(time)

    def __repr__(self) -> str:
        return f"SimulationClock(now={self._now})"
