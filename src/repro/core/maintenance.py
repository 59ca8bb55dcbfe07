"""Snapshot maintenance scheduling (§5.1).

Each maintenance round:

* every PASSIVE node heartbeats its representative (which replies with
  its estimate; a bad or missing reply triggers a localized
  re-election);
* every ACTIVE node that represents only itself broadcasts an
  invitation, trying to fold itself under an existing representative;
* representatives run the energy check (hand-off below the battery
  threshold) and, optionally, the LEACH-style random rotation.

Heartbeats are spread out: each node's periodic task starts with a
random offset inside the first period, so concurrent invitations do not
collide (two lone actives inviting at the same instant would refuse to
adopt each other) and the radio load is spread — the same reason LEACH
randomizes cluster-head self-election.

The manager also keeps per-round message accounting for Figure 15: call
``round_message_costs`` after a run to get the average number of
protocol messages per node per maintenance round.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from repro.core.config import ProtocolConfig
from repro.core.protocol import ProtocolNode
from repro.core.status import NodeMode
from repro.network.stats import MessageStats
from repro.simulation.engine import PeriodicTask, Simulator

__all__ = ["MaintenanceManager"]

#: Buckets of the ``maintenance.msgs_per_node`` histogram, framing the
#: 2–4.5 messages/node band Figure 15 reports per update.
COST_BUCKETS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0)


class MaintenanceManager:
    """Drives the periodic §5.1 maintenance over all protocol nodes."""

    def __init__(
        self,
        simulator: Simulator,
        nodes: Mapping[int, ProtocolNode],
        config: ProtocolConfig,
        stats: MessageStats,
    ) -> None:
        self.simulator = simulator
        self.nodes = nodes
        self.config = config
        self.stats = stats
        self._tasks: list[PeriodicTask] = []
        #: ``maintenance.<id>`` streams, created on a node's first draw.
        self._entity_rngs: dict[int, object] = {}
        self._round_costs: list[float] = []
        self._rounds = 0
        self._rounds_counter = simulator.metrics.counter("maintenance.rounds")
        self._cost_histogram = simulator.metrics.histogram(
            "maintenance.msgs_per_node", COST_BUCKETS
        )
        self._round_span = None

    def _node_rng(self, node_id: int):
        """The ``maintenance.<id>`` stream ``node_id`` draws from.

        Each node owns its stream, so what one node draws never depends
        on how many draws other nodes made before it: a crash, a
        revival or a skipped action elsewhere leaves its offsets and
        rotation coin flips unchanged.
        """
        rng = self._entity_rngs.get(node_id)
        if rng is None:
            rng = self.simulator.random.stream(f"maintenance.{node_id}")
            self._entity_rngs[node_id] = rng
        return rng

    @property
    def running(self) -> bool:
        """Whether maintenance tasks are armed."""
        return any(not task.stopped for task in self._tasks)

    @property
    def rounds_completed(self) -> int:
        """Number of maintenance rounds that have run."""
        return self._rounds

    def start(self) -> None:
        """Arm the periodic maintenance tasks: each node acts once per
        period, at its own random offset (drawn from its
        ``maintenance.<id>`` stream) into the period."""
        if self.running:
            raise RuntimeError("maintenance already started")
        period = self.config.heartbeat_period
        # Cluster each round's actions into a tight burst: heartbeats,
        # timeouts and the resulting re-election invitations then all
        # fall inside one offer-batching window, so every responder
        # sends at most one combined CandidateList per round — the
        # precondition for Figure 15's 2–4.5 messages/node per update.
        window = min(1.0, period / 4)
        for node_id in sorted(self.nodes):
            offset = float(self._node_rng(node_id).uniform(0.0, window))
            task = self.simulator.every(
                period,
                partial(self._node_action, node_id),
                label=f"maintenance:{node_id}",
                first_delay=offset,
            )
            self._tasks.append(task)
        # Round bookkeeping task: checkpoints message counters at each
        # period boundary so Figure 15's per-update costs are exact.
        self.stats.checkpoint()
        self._tasks.append(
            self.simulator.every(
                period, self._close_round, label="maintenance:round", first_delay=period
            )
        )
        self._round_span = self.simulator.spans.begin(
            "maintenance.round", index=self._rounds + 1
        )

    def stop(self) -> None:
        """Disarm all maintenance tasks, closing the open accounting window.

        Idempotent: stopping an already-stopped (or never-started)
        manager is a no-op.  The partial round in flight at stop time is
        recorded if it carried any traffic — otherwise its messages
        silently vanish from :meth:`round_message_costs` *and* a
        subsequent :meth:`start` re-checkpoints mid-window, folding the
        orphaned messages into the next round's cost (skewing Figure 15
        upward).
        """
        if not self._tasks:
            return
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        if self.stats.window_protocol_total():
            self._close_round()
        if self._round_span is not None:
            self._round_span.end()
            self._round_span = None

    def _node_action(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if not node.alive:
            return
        rng = self._node_rng(node_id)
        node.check_energy()
        if self.config.member_expiry_periods > 0:
            node.expire_stale_members(
                self.config.member_expiry_periods * self.config.heartbeat_period
            )
        if (
            node.mode is NodeMode.ACTIVE
            and node.represented
            and self.config.rotation_probability > 0
            and rng.random() < self.config.rotation_probability
        ):
            node.resign()
            return
        if node.mode is NodeMode.PASSIVE:
            node.send_heartbeat()
        elif node.mode is NodeMode.ACTIVE and not node.represented:
            # Randomized so concurrent lone actives take turns
            # inviting vs responding; otherwise a round where every
            # lone node awaits offers leaves no one to answer.
            if rng.random() < self.config.lone_invite_probability:
                node.lone_active_invite()

    def _close_round(self) -> None:
        """Record this round's per-node protocol message cost (Fig. 15)."""
        n_alive = sum(1 for node in self.nodes.values() if node.alive)
        if n_alive > 0:
            cost = self.stats.window_protocol_per_node(n_alive)
            self._round_costs.append(cost)
            self._cost_histogram.observe(cost)
        self.stats.checkpoint()
        self._rounds += 1
        self._rounds_counter.inc()
        if self._round_span is not None:
            self._round_span.end()
            self._round_span = None
        self.simulator.trace.emit(
            self.simulator.now, "maintenance.round", index=self._rounds
        )
        # Re-open for the next round while the periodic tasks are still
        # armed; the stop() path clears the task list first, so no span
        # is left dangling at shutdown.
        if self._tasks:
            self._round_span = self.simulator.spans.begin(
                "maintenance.round", index=self._rounds + 1
            )

    def round_message_costs(self) -> list[float]:
        """Protocol messages per node for each completed round."""
        return list(self._round_costs)

    def average_messages_per_node(self) -> float:
        """Mean per-round protocol messages per node (Figure 15's y-axis)."""
        if not self._round_costs:
            return 0.0
        return sum(self._round_costs) / len(self._round_costs)
