"""Declarative fault schedules.

Section 5.1 of the paper claims the snapshot structure survives node
death, model failure, and representative hand-off, and Figures 13–15
measure it doing so.  A :class:`FaultPlan` makes that claim testable:
it is an immutable list of fault events — node crashes (optionally with
revival), battery-depletion spikes, transient link-loss bursts, and
topology partitions — expressed as *offsets* from the moment the plan
is armed, so the same plan can be replayed against any runtime at any
point of its life.

Plans are pure data: arming them against a simulator is the
:class:`~repro.faults.injector.FaultInjector`'s job, which keeps the
schedule serializable, hashable for seeding, and printable in test
failure reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "NodeCrash",
    "BatteryDrain",
    "LinkLossBurst",
    "NetworkPartition",
    "FaultEvent",
    "FaultPlan",
]


def _require_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node_id`` fails at ``time``; revives ``down_for`` later.

    ``down_for=None`` models a permanent death (the paper's battery
    exhaustion, compressed to an instant); a finite ``down_for`` models
    a transient outage — the node comes back with its trained models
    but no volatile protocol state, and rejoins via a §5.1 re-election.
    """

    time: float
    node_id: int
    down_for: Union[float, None] = None

    def __post_init__(self) -> None:
        _require_non_negative("time", self.time)
        if self.down_for is not None:
            _require_positive("down_for", self.down_for)

    @property
    def end_time(self) -> float:
        """When the fault's last effect fires (revival, or the crash)."""
        return self.time if self.down_for is None else self.time + self.down_for


@dataclass(frozen=True)
class BatteryDrain:
    """An energy spike: instantly draw ``fraction`` of the node's
    initial capacity at ``time`` (a sensing burst, a short, a routing
    storm).  A no-op on infinite batteries, which cannot deplete."""

    time: float
    node_id: int
    fraction: float = 0.5

    def __post_init__(self) -> None:
        _require_non_negative("time", self.time)
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")

    @property
    def end_time(self) -> float:
        return self.time


@dataclass(frozen=True)
class LinkLossBurst:
    """Every link drops messages with extra probability ``loss`` during
    ``[time, time + duration)`` — interference, rain fade, a jammer.

    Burst loss composes with the runtime's own loss model (a message
    survives only if both let it through), so a burst over a lossy
    radio degrades it further rather than replacing it.
    """

    time: float
    duration: float
    loss: float = 0.5

    def __post_init__(self) -> None:
        _require_non_negative("time", self.time)
        _require_positive("duration", self.duration)
        if not 0.0 < self.loss <= 1.0:
            raise ValueError(f"loss must be in (0, 1], got {self.loss}")

    @property
    def end_time(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class NetworkPartition:
    """Links crossing between ``group`` and the rest of the network are
    severed during ``[time, time + duration)`` (both directions) — the
    paper's §3 obstacle example, scaled from one link to a cut."""

    time: float
    duration: float
    group: frozenset[int]

    def __post_init__(self) -> None:
        _require_non_negative("time", self.time)
        _require_positive("duration", self.duration)
        if not self.group:
            raise ValueError("a partition needs a non-empty group")
        # dataclass(frozen) + mutable input: normalize to a frozenset
        object.__setattr__(self, "group", frozenset(self.group))

    @property
    def end_time(self) -> float:
        return self.time + self.duration


FaultEvent = Union[NodeCrash, BatteryDrain, LinkLossBurst, NetworkPartition]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered schedule of fault events.

    Event times are offsets from the instant the plan is armed by a
    :class:`~repro.faults.injector.FaultInjector`.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.time))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def end_time(self) -> float:
        """Offset of the last effect (revival / burst end / partition heal).

        The quiescence point any invariant check should wait past.
        """
        return max((event.end_time for event in self.events), default=0.0)

    def crashes(self) -> tuple[NodeCrash, ...]:
        """The node-crash events, in time order."""
        return tuple(e for e in self.events if isinstance(e, NodeCrash))
