"""The shared radio medium.

Transmissions are broadcasts over a unit-disk neighborhood: every alive
node within the sender's transmission range is a potential receiver, and
each receiver independently loses the message with the link's loss
probability (the paper's ``P_loss``).  A *unicast* is a broadcast with a
designated target — non-target receivers get the message flagged as
``overheard``, which is what feeds the snooping-based model building of
§3 ("snooping ... values broadcast by its neighbor node in response to
a query").

Energy: the sender pays the transmit cost once per transmission (not per
receiver), receivers pay the receive cost (zero in the paper's
accounting), and both are booked in the :class:`~repro.energy.EnergyLedger`.
Deliveries are scheduled ``latency`` time units after the send, so
same-instant protocol steps observe a consistent global order.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.energy.accounting import EnergyLedger
from repro.energy.costs import PAPER_COST_MODEL, EnergyCostModel
from repro.network.links import PERFECT_LINKS, LossModel
from repro.network.messages import Message
from repro.network.node import NetworkNode
from repro.network.stats import MessageStats
from repro.network.topology import Topology
from repro.simulation.engine import Simulator

__all__ = ["Radio"]

#: Event priority for message deliveries — they fire before timers
#: scheduled at the same instant, so protocol timeouts observe all
#: traffic that "already happened".
DELIVERY_PRIORITY = -1

#: Buckets of the ``net.fanout`` histogram: alive receivers reached per
#: transmission (unit-disk neighborhoods rarely exceed a few dozen).
FANOUT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Radio:
    """Broadcast medium connecting :class:`NetworkNode` devices.

    Parameters
    ----------
    simulator:
        The discrete-event engine; deliveries are scheduled on it.
    topology:
        Placement and transmission ranges (decides who can hear whom).
    loss_model:
        Per-link Bernoulli loss; defaults to lossless.
    cost_model:
        Energy prices for transmit/receive.
    stats:
        Optional message counters (created if omitted).
    ledger:
        Optional energy ledger (created if omitted).
    latency:
        Propagation delay between send and delivery, in time units.
        Must be small relative to protocol phase spacing.
    batch_fanout:
        When true (the default), one transmission schedules a *single*
        delivery event carrying the precomputed receiver list instead of
        one event per receiver.  Loss outcomes are sampled at send time
        with :meth:`LossModel.loss_vector` in ``out_neighbors`` order,
        consuming the radio RNG stream draw-for-draw identically to the
        scalar path, and the per-receiver delivery events of one
        transmission are contiguous in the event queue — so collapsing
        them into one batch preserves the global firing order and the
        simulation trajectory bit-for-bit (pinned by a golden-trace
        test).  ``False`` keeps the legacy per-receiver event path.
    rng_discipline:
        ``"shared"`` (default) draws loss from the one ``radio`` stream
        with dead receivers filtered *before* sampling.  ``"per-entity"``
        draws from a ``radio.<sender>`` stream per sender and samples
        loss over the sender's *full* out-neighborhood — dead receivers
        are filtered (and booked as ``dropped_dead``) at delivery time
        instead.  That makes the draw count independent of remote node
        state, which is what lets a sharded sender transmit without
        knowing whether a receiver in another shard is alive.  Requires
        ``batch_fanout``.
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        loss_model: LossModel = PERFECT_LINKS,
        cost_model: EnergyCostModel = PAPER_COST_MODEL,
        stats: Optional[MessageStats] = None,
        ledger: Optional[EnergyLedger] = None,
        latency: float = 0.001,
        batch_fanout: bool = True,
        rng_discipline: str = "shared",
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        if rng_discipline not in ("shared", "per-entity"):
            raise ValueError(f"unknown rng_discipline {rng_discipline!r}")
        if rng_discipline == "per-entity" and not batch_fanout:
            raise ValueError("per-entity rng_discipline requires batch_fanout")
        self.simulator = simulator
        self.topology = topology
        self.loss_model = loss_model
        self.cost_model = cost_model
        # Default accounting lives in the engine's metrics registry so
        # run reports export the exact counters the protocol reads;
        # explicitly passed stats/ledgers stay standalone.
        registry = simulator.metrics
        self.stats = stats if stats is not None else MessageStats(registry)
        self.ledger = ledger if ledger is not None else EnergyLedger(registry)
        self._fanout = registry.histogram("net.fanout", FANOUT_BUCKETS)
        self.latency = latency
        self.batch_fanout = batch_fanout
        self._nodes: dict[int, NetworkNode] = {}
        self._rng = simulator.random.stream("radio")
        self.rng_discipline = rng_discipline
        self._per_entity = rng_discipline == "per-entity"
        self._entity_rngs: dict[int, object] = {}
        #: Sharded-engine hooks (see ``simulation.sharded``): when
        #: ``shard_local_ids`` is set, this radio owns only that subset
        #: of the topology's nodes; deliveries to remote receivers are
        #: emitted through ``handoff_sink`` as
        #: :class:`~repro.network.handoff.RadioHandoff` records instead
        #: of being scheduled locally.
        self.shard_local_ids = None
        self.handoff_sink = None
        #: Optional :class:`~repro.core.round_batch.BatchedObservationRouter`
        #: attached by the runtime when ``batched_rounds`` is on.
        #: Protocol handlers consult it to divert overheard measurement
        #: observations into the per-burst batch instead of applying
        #: them inline.
        self.observation_router = None

    # -- registration ------------------------------------------------------

    def register(self, node: NetworkNode) -> NetworkNode:
        """Attach a device to the medium (one per topology id)."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        if node.node_id not in self.topology.node_ids:
            raise ValueError(f"node {node.node_id} not present in topology")
        self._nodes[node.node_id] = node
        return node

    def populate(
        self,
        battery_capacity: Optional[float] = None,
        ids=None,
    ) -> list[NetworkNode]:
        """Create and register one device per topology node.

        Parameters
        ----------
        battery_capacity:
            Initial charge per node in transmission units, or ``None``
            for infinite batteries.
        ids:
            Subset of topology ids to register (sharded engines own only
            their partition's nodes); all of them by default.
        """
        from repro.energy.battery import Battery

        nodes = []
        for node_id in self.topology.node_ids if ids is None else ids:
            nodes.append(self.register(NetworkNode(node_id, Battery(battery_capacity))))
        return nodes

    def node(self, node_id: int) -> NetworkNode:
        """The registered device with ``node_id``."""
        return self._nodes[node_id]

    @property
    def nodes(self) -> dict[int, NetworkNode]:
        """All registered devices, by id."""
        return dict(self._nodes)

    def alive_ids(self) -> list[int]:
        """Ids of devices whose batteries still hold charge."""
        return [node_id for node_id, node in self._nodes.items() if node.alive]

    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` is in :meth:`alive_ids`, in O(1)."""
        device = self._nodes.get(node_id)
        return device is not None and device.alive

    # -- transmission ------------------------------------------------------

    def broadcast(self, message: Message) -> bool:
        """Transmit ``message`` to every node in the sender's range.

        Returns ``False`` (and sends nothing) if the sender is dead.
        All in-range alive receivers get the message with
        ``overheard=False`` — a broadcast addresses everyone.
        """
        return self._transmit(message, target=None)

    def unicast(self, message: Message, target: int) -> bool:
        """Transmit ``message`` addressed to ``target``.

        The medium is still broadcast: in-range non-targets receive the
        message flagged ``overheard=True`` (subject to the same per-link
        loss), enabling snooping.
        """
        if target == message.sender:
            raise ValueError("a node does not unicast to itself")
        return self._transmit(message, target=target)

    def _transmit(self, message: Message, target: Optional[int]) -> bool:
        sender = self._nodes.get(message.sender)
        if sender is None:
            raise KeyError(f"unregistered sender {message.sender}")
        if not sender.alive:
            return False
        sender.battery.draw(self.cost_model.transmit)
        self.ledger.record(sender.node_id, "transmit", self.cost_model.transmit)
        self.stats.record_sent(message)
        self.simulator.trace.emit(
            self.simulator.now, "message.sent",
            sender=message.sender, message_kind=message.kind, target=target,
        )
        if self.batch_fanout:
            self._transmit_batched(message, target)
        else:
            self._transmit_scalar(message, target)
        return True

    def _transmit_scalar(self, message: Message, target: Optional[int]) -> None:
        """Legacy fan-out: one RNG draw and one delivery event per receiver."""
        dead = 0
        alive = 0
        for receiver_id in self.topology.out_neighbors(message.sender):
            receiver = self._nodes.get(receiver_id)
            if receiver is None or not receiver.alive:
                dead += 1
                continue
            alive += 1
            if not self.loss_model.delivered(message.sender, receiver_id, self._rng):
                self.stats.record_dropped(message)
                continue
            overheard = target is not None and receiver_id != target
            self._schedule_delivery(receiver, message, overheard)
        if dead:
            self.stats.record_dropped_dead(message, dead)
        self._fanout.observe(alive)

    def _sender_rng(self, sender: int):
        rng = self._entity_rngs.get(sender)
        if rng is None:
            rng = self._entity_rngs[sender] = self.simulator.random.stream(
                f"radio.{sender}"
            )
        return rng

    def _transmit_entity(self, message: Message, target: Optional[int]) -> None:
        """Per-entity fan-out: loss sampled over the full neighborhood.

        The draw comes from the sender's own ``radio.<sender>`` stream
        and covers every in-range receiver regardless of liveness, so
        neither interleaving with other senders nor remote node state
        changes the stream position.  Dead receivers among the loss
        survivors are filtered — and booked as ``dropped_dead`` — when
        the batch is delivered, in the receiver's own shard.
        """
        sender = message.sender
        receivers = self.topology.out_neighbors(sender)
        self._fanout.observe(len(receivers))
        if not receivers:
            return
        outcomes = self.loss_model.loss_vector(
            sender, receivers, self._sender_rng(sender)
        )
        if outcomes.all():
            survivors = receivers
        else:
            self.stats.record_dropped(message, len(receivers) - int(outcomes.sum()))
            survivors = [rid for rid, ok in zip(receivers, outcomes) if ok]
            if not survivors:
                return
        local_ids = self.shard_local_ids
        if local_ids is None:
            nodes = self._nodes
            pending = [
                (nodes[rid], target is not None and rid != target)
                for rid in survivors
            ]
            self._schedule_batch(message, pending)
            return
        nodes = self._nodes
        pending = []
        remote = []
        for rid in survivors:
            overheard = target is not None and rid != target
            if rid in local_ids:
                pending.append((nodes[rid], overheard))
            else:
                remote.append((rid, overheard))
        # One stamp per transmission, shared by the local batch and all
        # handoff copies: the receiving shards' entries then merge back
        # into the single delivery the reference run schedules.
        simulator = self.simulator
        lineage = simulator.lineage
        stamp = None if lineage is None else lineage.next_stamp(simulator.now)
        arrival = simulator.now + self.latency
        label = f"deliver:{message.kind}"
        if pending:
            simulator.inject_transient_at(
                arrival,
                partial(self._deliver_batch, message, pending),
                label=label,
                priority=DELIVERY_PRIORITY,
                sortkey=stamp,
            )
        if remote:
            from repro.network.handoff import RadioHandoff

            self.handoff_sink(
                RadioHandoff(
                    time=arrival,
                    stamp=stamp,
                    message=message,
                    receivers=tuple(remote),
                )
            )

    def receive_handoff(self, handoff) -> None:
        """Insert a boundary-crossing delivery minted by another shard."""
        nodes = self._nodes
        pending = [(nodes[rid], overheard) for rid, overheard in handoff.receivers]
        self.simulator.inject_transient_at(
            handoff.time,
            partial(self._deliver_batch, handoff.message, pending),
            label=f"deliver:{handoff.message.kind}",
            priority=DELIVERY_PRIORITY,
            sortkey=handoff.stamp,
        )

    def _transmit_batched(self, message: Message, target: Optional[int]) -> None:
        """Batched fan-out: one blocked loss draw and one delivery event.

        Dead or unregistered receivers are filtered *before* sampling —
        exactly where the scalar path skips them — so they consume no
        RNG draws and the two paths stay draw-for-draw identical.
        """
        if self._per_entity:
            self._transmit_entity(message, target)
            return
        nodes_get = self._nodes.get
        alive_ids: list[int] = []
        alive_nodes: list[NetworkNode] = []
        dead = 0
        for receiver_id in self.topology.out_neighbors(message.sender):
            receiver = nodes_get(receiver_id)
            if receiver is None or not receiver.alive:
                dead += 1
                continue
            alive_ids.append(receiver_id)
            alive_nodes.append(receiver)
        if dead:
            self.stats.record_dropped_dead(message, dead)
        self._fanout.observe(len(alive_ids))
        if not alive_ids:
            return
        outcomes = self.loss_model.loss_vector(message.sender, alive_ids, self._rng)
        if outcomes.all():
            pending = [
                (node, target is not None and receiver_id != target)
                for receiver_id, node in zip(alive_ids, alive_nodes)
            ]
        else:
            dropped = len(alive_ids) - int(outcomes.sum())
            self.stats.record_dropped(message, dropped)
            pending = [
                (node, target is not None and receiver_id != target)
                for receiver_id, node, ok in zip(alive_ids, alive_nodes, outcomes)
                if ok
            ]
        if not pending:
            return
        self._schedule_batch(message, pending)

    def _schedule_batch(
        self, message: Message, pending: list[tuple[NetworkNode, bool]]
    ) -> None:
        # Deliveries are never cancelled, so they ride the allocation-free
        # transient slab instead of carrying an Event handle.
        self.simulator.schedule_transient(
            self.latency,
            partial(self._deliver_batch, message, pending),
            label=f"deliver:{message.kind}",
            priority=DELIVERY_PRIORITY,
        )

    def _deliver_batch(
        self, message: Message, pending: list[tuple[NetworkNode, bool]]
    ) -> None:
        # NetworkNode.deliver does not check liveness; this loop does,
        # once per receiver, and again after a paid receive, which can
        # drain the battery.  A free receive skips the no-op zero draw.
        cost_receive = self.cost_model.receive
        delivered = self.stats.delivered
        kind = message.kind
        per_entity = self._per_entity
        lineage = self.simulator.lineage
        if lineage is None:
            for receiver, overheard in pending:
                if not receiver.alive:
                    if per_entity:
                        self.stats.record_dropped_dead(message, 1)
                    continue
                delivered[(receiver.node_id, kind)] += 1
                if cost_receive > 0:
                    receiver.battery.draw(cost_receive)
                    self.ledger.record(receiver.node_id, "receive", cost_receive)
                    if not receiver.alive:
                        continue
                receiver.deliver(message, overheard)
            return
        # Lineage mode: each receiver's handler runs in a branch scope so
        # the events it schedules align on the receiver id across shards.
        fan_token = lineage.fan_begin()
        try:
            for receiver, overheard in pending:
                if not receiver.alive:
                    self.stats.record_dropped_dead(message, 1)
                    continue
                branch_token = lineage.branch_begin(receiver.node_id)
                try:
                    delivered[(receiver.node_id, kind)] += 1
                    if cost_receive > 0:
                        receiver.battery.draw(cost_receive)
                        self.ledger.record(receiver.node_id, "receive", cost_receive)
                        if not receiver.alive:
                            continue
                    receiver.deliver(message, overheard)
                finally:
                    lineage.branch_end(branch_token)
        finally:
            lineage.fan_end(fan_token)

    def _schedule_delivery(
        self, receiver: NetworkNode, message: Message, overheard: bool
    ) -> None:
        self.simulator.schedule_transient(
            self.latency,
            partial(self._deliver, receiver, message, overheard),
            label=f"deliver:{message.kind}",
            priority=DELIVERY_PRIORITY,
        )

    def _deliver(
        self, receiver: NetworkNode, message: Message, overheard: bool
    ) -> None:
        if not receiver.alive:
            return
        receiver.battery.draw(self.cost_model.receive)
        if self.cost_model.receive > 0:
            self.ledger.record(receiver.node_id, "receive", self.cost_model.receive)
        self.stats.record_delivered(receiver.node_id, message)
        if receiver.alive:
            receiver.deliver(message, overheard)

    # -- misc --------------------------------------------------------------

    def charge_cpu(self, node_id: int, multiplier: float = 1.0) -> None:
        """Charge one cache-maintenance run's CPU cost to ``node_id``."""
        cost = self.cost_model.cpu_cache_update * multiplier
        if cost <= 0:
            return
        node = self._nodes[node_id]
        if not node.alive:
            return
        node.battery.draw(cost)
        self.ledger.record(node_id, "cpu", cost)
