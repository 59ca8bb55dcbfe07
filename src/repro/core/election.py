"""Network-wide election rounds.

The coordinator schedules the four phases of Table 2 on every alive
node: invitation at ``t0``, model evaluation one phase-spacing later,
initial selection after two, refinement after three.  Phases are global
wall-clock instants — the paper's nodes are loosely synchronized (via
TinyOS clocks or a continuous query's epoch id, §3) — while everything
*within* a phase travels as real, lossy radio messages.

The coordinator is only a scheduler: all protocol logic lives in
:class:`~repro.core.protocol.ProtocolNode`.  After
``settle_delay`` time units, every node has resolved its mode with
overwhelming probability (Rule-4 resolves geometrically); the runtime's
``run_election`` helper simply runs the simulator that far.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Optional

from repro.core.config import ProtocolConfig
from repro.core.protocol import ProtocolNode, StructureTally
from repro.simulation.engine import Simulator

__all__ = ["ElectionCoordinator"]

#: Rule-4 retries allowed for in ``settle_delay``; with the default
#: ``P_wait = 0.95`` the probability a node is still UNDEFINED after 120
#: retries is below 0.3% even when every retry message is lost.  A node
#: that somehow is still UNDEFINED at capture time is treated as ACTIVE
#: (the protocol's own bias), so the tail is harmless.
_RULE4_RETRIES_BUDGET = 120


class _ElectionRound:
    """One scheduled election round's phase callbacks.

    A plain object (not closures) so the pending phase events — and any
    checkpoint taken mid-election — pickle cleanly.  The open span
    handle lives on the round, exactly as the former closure's ``handle``
    dict did.
    """

    __slots__ = ("coordinator", "epoch", "_span")

    def __init__(self, coordinator: "ElectionCoordinator", epoch: int) -> None:
        self.coordinator = coordinator
        self.epoch = epoch
        self._span = None

    def run_phase(self, method_name: str) -> None:
        # Branch the lineage per node id: a shard iterating only its
        # local subset then mints the same stamps the single-process
        # reference minted for those nodes' follow-up events.
        simulator = self.coordinator.simulator
        with simulator.fanout():
            for node in self.coordinator.nodes.values():
                if node.alive:
                    with simulator.branch(node.node_id):
                        getattr(node, method_name)()

    def begin(self) -> None:
        simulator = self.coordinator.simulator
        if simulator.shared_emitter:
            self.coordinator._rounds.inc()
            self._span = simulator.spans.begin("election", epoch=self.epoch)
        with simulator.fanout():
            for node in self.coordinator.nodes.values():
                if node.alive:
                    with simulator.branch(node.node_id):
                        node.reset_round(self.epoch)
        self.run_phase("phase_invite")
        if simulator.shared_emitter:
            simulator.trace.emit(
                simulator.now, "election.started", epoch=self.epoch
            )

    def settle(self) -> None:
        self.run_phase("end_refinement")
        span, self._span = self._span, None
        if span is not None:
            span.end()


class ElectionCoordinator:
    """Schedules global election rounds over a set of protocol nodes."""

    def __init__(
        self,
        simulator: Simulator,
        nodes: Mapping[int, ProtocolNode],
        config: ProtocolConfig,
        tally: Optional[StructureTally] = None,
    ) -> None:
        self.simulator = simulator
        self.nodes = nodes
        self.config = config
        self.epoch = 0
        self.tally = tally if tally is not None else StructureTally()
        self._rounds = simulator.metrics.counter("election.rounds")

    @property
    def settle_delay(self) -> float:
        """Time from round start until all modes have settled (w.h.p.)."""
        return (
            3 * self.config.phase_spacing
            + self.config.max_wait
            + _RULE4_RETRIES_BUDGET * self.config.rule4_retry
        )

    def start_round(self, at: Optional[float] = None) -> int:
        """Schedule one full election round; returns its epoch number.

        Parameters
        ----------
        at:
            Absolute start time; defaults to the current simulated time.
        """
        t0 = self.simulator.now if at is None else at
        if t0 < self.simulator.now:
            raise ValueError(
                f"cannot start an election in the past ({t0} < {self.simulator.now})"
            )
        self.epoch += 1
        epoch = self.epoch
        self.tally.reach(epoch)
        spacing = self.config.phase_spacing

        # The span opens at the invitation phase and closes when modes
        # have settled; the begin/end pair brackets the whole timeline
        # of Table 2's phases in the trace.
        round_ = _ElectionRound(self, epoch)

        self.simulator.schedule_at(t0, round_.begin, label="election:invite")
        self.simulator.schedule_at(
            t0 + spacing,
            partial(round_.run_phase, "phase_evaluate"),
            label="election:evaluate",
        )
        self.simulator.schedule_at(
            t0 + 2 * spacing,
            partial(round_.run_phase, "phase_select"),
            label="election:select",
        )
        self.simulator.schedule_at(
            t0 + 3 * spacing,
            partial(round_.run_phase, "phase_refine"),
            label="election:refine",
        )
        self.simulator.schedule_at(
            t0 + self.settle_delay,
            round_.settle,
            label="election:end",
        )
        return epoch

    def all_settled(self) -> bool:
        """Whether every alive node has resolved ACTIVE or PASSIVE."""
        return all(
            node.mode.settled for node in self.nodes.values() if node.alive
        )
