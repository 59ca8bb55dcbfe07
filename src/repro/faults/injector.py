"""Arming fault plans against a running simulation.

The :class:`FaultInjector` turns the pure-data events of a
:class:`~repro.faults.plan.FaultPlan` into scheduled simulator actions:
node crashes flip the device's failure flag (and, on revival, reboot
the protocol layer so the node rejoins via a §5.1 re-election),
battery drains draw charge instantly, and link-loss bursts / partitions
are realized by interposing a composing :class:`_FaultOverlayLoss`
between the radio and its configured loss model.

The overlay is transparent when no link fault is active: it delegates
``loss_vector`` straight to the base model, so RNG draw order — and
therefore every existing golden trace — is untouched until the first
burst or partition actually begins.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.faults.plan import (
    BatteryDrain,
    FaultPlan,
    LinkLossBurst,
    NetworkPartition,
    NodeCrash,
)
from repro.network.links import LossModel, _sample_deliveries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.runtime import SnapshotRuntime

__all__ = ["FaultInjector"]


class _FaultOverlayLoss(LossModel):
    """Composes transient fault loss over the radio's own loss model.

    A message survives a directed link only if the base model delivers
    it *and* no active burst drops it *and* no active partition severs
    the link: ``p = 1 - (1 - p_base) * (1 - p_burst)``, forced to 1.0
    across a partition cut.  Multiple overlapping bursts compose the
    same way.
    """

    def __init__(self, base: LossModel) -> None:
        self.base = base
        self._burst_losses: list[float] = []
        self._partitions: list[frozenset[int]] = []

    @property
    def quiet(self) -> bool:
        """Whether the overlay is currently a pure pass-through."""
        return not self._burst_losses and not self._partitions

    @property
    def lossless(self) -> bool:
        return self.quiet and self.base.lossless

    # -- fault toggles -----------------------------------------------------

    def push_burst(self, loss: float) -> None:
        self._burst_losses.append(loss)

    def pop_burst(self, loss: float) -> None:
        self._burst_losses.remove(loss)

    def push_partition(self, group: frozenset[int]) -> None:
        self._partitions.append(group)

    def pop_partition(self, group: frozenset[int]) -> None:
        self._partitions.remove(group)

    # -- LossModel interface -----------------------------------------------

    def _severed(self, sender: int, receiver: int) -> bool:
        return any(
            (sender in group) != (receiver in group) for group in self._partitions
        )

    def _burst_survival(self) -> float:
        survival = 1.0
        for loss in self._burst_losses:
            survival *= 1.0 - loss
        return survival

    def loss_probability(self, sender: int, receiver: int) -> float:
        p = self.base.loss_probability(sender, receiver)
        if self.quiet:
            return p
        if self._severed(sender, receiver):
            return 1.0
        return 1.0 - (1.0 - p) * self._burst_survival()

    def loss_vector(
        self,
        sender: int,
        receivers: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        if self.quiet:
            # Pass-through preserves the base model's draw order exactly,
            # so arming an injector perturbs nothing until a fault fires.
            return self.base.loss_vector(sender, receivers, rng)
        return _sample_deliveries(
            [self.loss_probability(sender, receiver) for receiver in receivers], rng
        )

    def __repr__(self) -> str:
        return (
            f"_FaultOverlayLoss(base={self.base!r}, "
            f"bursts={len(self._burst_losses)}, "
            f"partitions={len(self._partitions)})"
        )


class FaultInjector:
    """Applies fault plans (or ad-hoc faults) to a snapshot runtime.

    Constructing an injector interposes the loss overlay on the radio;
    it stays a pass-through until a link fault activates, so building
    one is free.  Every fault emits a ``fault.*`` trace record, which is
    what lets the invariant checker and the tests correlate protocol
    behaviour with the faults that provoked it.
    """

    def __init__(self, runtime: "SnapshotRuntime") -> None:
        self.runtime = runtime
        self.simulator = runtime.simulator
        self.overlay = _FaultOverlayLoss(runtime.radio.loss_model)
        runtime.radio.loss_model = self.overlay
        self.crashes_applied = 0
        self.revivals_applied = 0

    # -- immediate fault actions -------------------------------------------

    def crash(self, node_id: int) -> None:
        """Fail ``node_id`` now: it stops sending, receiving and timing."""
        device = self.runtime.radio.node(node_id)
        if device.failed:
            return
        device.fail()
        self.crashes_applied += 1
        self.simulator.trace.emit(self.simulator.now, "fault.crash", node=node_id)

    def revive(self, node_id: int) -> None:
        """Bring a crashed ``node_id`` back.

        The device's failure flag clears; if the battery still holds
        charge the protocol node reboots — volatile election state is
        gone, so it re-enters the network UNDEFINED and triggers a §5.1
        re-election to find (or become) a representative.
        """
        device = self.runtime.radio.node(node_id)
        if not device.failed:
            return
        device.restore()
        self.revivals_applied += 1
        self.simulator.trace.emit(self.simulator.now, "fault.revive", node=node_id)
        if device.alive:
            self.runtime.nodes[node_id].reboot()

    def drain(self, node_id: int, fraction: float) -> None:
        """Instantly draw ``fraction`` of the node's initial capacity."""
        device = self.runtime.radio.node(node_id)
        battery = device.battery
        if battery.capacity is None:
            # Infinite batteries cannot deplete; the spike is a no-op.
            return
        amount = battery.capacity * fraction
        battery.draw(amount)
        self.simulator.trace.emit(
            self.simulator.now, "fault.drain", node=node_id, amount=amount
        )

    def begin_burst(self, loss: float) -> None:
        """Start an open-ended global link-loss burst."""
        self.overlay.push_burst(loss)
        self.simulator.trace.emit(self.simulator.now, "fault.burst.begin", loss=loss)

    def end_burst(self, loss: float) -> None:
        """End one burst previously begun with the same ``loss``."""
        self.overlay.pop_burst(loss)
        self.simulator.trace.emit(self.simulator.now, "fault.burst.end", loss=loss)

    def begin_partition(self, group: frozenset[int]) -> None:
        """Sever all links crossing between ``group`` and the rest."""
        self.overlay.push_partition(group)
        self.simulator.trace.emit(
            self.simulator.now, "fault.partition.begin", size=len(group)
        )

    def end_partition(self, group: frozenset[int]) -> None:
        """Heal a partition previously begun with the same ``group``."""
        self.overlay.pop_partition(group)
        self.simulator.trace.emit(
            self.simulator.now, "fault.partition.end", size=len(group)
        )

    # -- plan scheduling ---------------------------------------------------

    def apply(self, plan: FaultPlan, at: Optional[float] = None) -> float:
        """Schedule every event of ``plan`` relative to ``at`` (default: now).

        Returns the absolute simulation time of the plan's last effect —
        the earliest moment a quiescence check makes sense.
        """
        base = self.simulator.now if at is None else at
        if base < self.simulator.now:
            raise ValueError(
                f"cannot arm a plan in the past ({base} < {self.simulator.now})"
            )
        for event in plan:
            self._schedule_event(base, event)
        return base + plan.end_time

    def _schedule_event(self, base: float, event) -> None:
        schedule = self.simulator.schedule_at
        if isinstance(event, NodeCrash):
            node_id = event.node_id
            schedule(
                base + event.time, partial(self.crash, node_id), label="fault:crash"
            )
            if event.down_for is not None:
                schedule(
                    base + event.end_time,
                    partial(self.revive, node_id),
                    label="fault:revive",
                )
        elif isinstance(event, BatteryDrain):
            schedule(
                base + event.time,
                partial(self.drain, event.node_id, event.fraction),
                label="fault:drain",
            )
        elif isinstance(event, LinkLossBurst):
            loss = event.loss
            schedule(
                base + event.time, partial(self.begin_burst, loss), label="fault:burst"
            )
            schedule(
                base + event.end_time,
                partial(self.end_burst, loss),
                label="fault:burst-end",
            )
        elif isinstance(event, NetworkPartition):
            group = frozenset(event.group)
            schedule(
                base + event.time,
                partial(self.begin_partition, group),
                label="fault:partition",
            )
            schedule(
                base + event.end_time,
                partial(self.end_partition, group),
                label="fault:partition-end",
            )
        else:  # pragma: no cover - plan validation precludes this
            raise TypeError(f"unknown fault event {event!r}")
