"""The shared radio medium.

Transmissions are broadcasts over a unit-disk neighborhood: every node
within the sender's transmission range is a potential receiver, and
each receiver independently loses the message with the link's loss
probability (the paper's ``P_loss``), drawn from the sender's own
``radio.<sender>`` stream.  A receiver that is dead when the message
arrives is booked as ``dropped_dead``.  A *unicast* is a broadcast with a
designated target — non-target receivers get the message flagged as
``overheard``, which is what feeds the snooping-based model building of
§3 ("snooping ... values broadcast by its neighbor node in response to
a query").

One transmission schedules one delivery *burst*: a single event
carrying the message, the surviving receivers' ids and the target.  It
books every receiver, then hands the live receivers' protocols the
whole burst in one call into the protocol layer, which dispatches by
message type (see ``core.protocol``).

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

#: Buckets of the ``net.fanout`` histogram: in-range receivers per
#: transmission, dead ones included, since liveness is only checked when
#: the burst is delivered (unit-disk neighborhoods rarely exceed a few
#: dozen).
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
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
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
        self._nodes: dict[int, NetworkNode] = {}
        #: ``radio.<sender>`` streams, created on a sender's first draw.
        self._entity_rngs: dict[int, object] = {}
        #: The runtime's
        #: :class:`~repro.core.round_batch.BatchedObservationRouter`.
        #: Protocol handlers divert overheard measurement observations
        #: into its per-burst batch; on a bare radio (no runtime) it
        #: stays ``None`` and they apply them inline.
        self.observation_router = None
        #: The protocol layer's burst entry point,
        #: ``burst_dispatch(message, protocols)``: runs one delivery
        #: burst's handlers for the receivers' resident protocols.  Set
        #: by the first protocol instance on this radio (a module-level
        #: function, so checkpoints pickle it by name).
        self.burst_dispatch = None

    # -- registration ------------------------------------------------------

    def register(self, node: NetworkNode) -> NetworkNode:
        """Attach a device to the medium (one per topology id)."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        if node.node_id not in self.topology.node_ids:
            raise ValueError(f"node {node.node_id} not present in topology")
        self._nodes[node.node_id] = node
        return node

    def populate(self, battery_capacity: Optional[float] = None) -> list[NetworkNode]:
        """Create and register one device per topology node.

        ``battery_capacity`` is the initial charge per node in
        transmission units, or ``None`` for infinite batteries.
        """
        from repro.energy.battery import Battery

        nodes = []
        for node_id in self.topology.node_ids:
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
        self._fan_out(message, target)
        return True

    def _sender_rng(self, sender: int):
        rng = self._entity_rngs.get(sender)
        if rng is None:
            rng = self._entity_rngs[sender] = self.simulator.random.stream(
                f"radio.{sender}"
            )
        return rng

    def _fan_out(self, message: Message, target: Optional[int]) -> None:
        """Sample loss over the full neighborhood; schedule one delivery.

        The draw is one blocked :meth:`LossModel.loss_vector` call on
        the sender's own ``radio.<sender>`` stream, in ``out_neighbors``
        order, and covers every in-range receiver regardless of
        liveness, so neither interleaving with other senders nor any
        receiver's state changes the stream position.  A lossless
        model draws nothing, so its call is skipped; the stream is
        still created, as every sender's stream is part of the digested
        state.  The
        loss survivors' ids ride a single delivery event (the *burst*);
        dead ones among them are filtered — and booked as
        ``dropped_dead`` — when the burst is delivered.
        """
        sender = message.sender
        receivers = self.topology.out_neighbors(sender)
        self._fanout.observe(len(receivers))
        if not receivers:
            return
        rng = self._sender_rng(sender)
        if not self.loss_model.lossless:
            outcomes = self.loss_model.loss_vector(sender, receivers, rng)
            if not outcomes.all():
                self.stats.record_dropped(
                    message, len(receivers) - int(outcomes.sum())
                )
                receivers = [rid for rid, ok in zip(receivers, outcomes) if ok]
                if not receivers:
                    return
        # Deliveries are never cancelled, so they ride the
        # allocation-free transient slab instead of an Event handle.
        self.simulator.schedule_transient(
            self.latency,
            partial(self._deliver_batch, message, receivers, target),
            label=f"deliver:{message.kind}",
            priority=DELIVERY_PRIORITY,
        )

    def _deliver_batch(
        self, message: Message, receivers, target: Optional[int]
    ) -> None:
        """Deliver one burst: ``message`` to the ``receivers`` ids.

        One pass books the burst: receivers dead on arrival are counted
        as ``dropped_dead``, the rest as delivered, and a nonzero
        receive cost is drawn — dropping the receivers it drains — all
        before any handler runs.  The live devices' resident protocols
        then get the burst in one :attr:`burst_dispatch` call, and
        devices with attached handlers get those, flagged ``overheard``
        unless addressed.  Neither a node's own handlers nor anything
        it sends can change another receiver's liveness, so this is
        the per-receiver outcome of :meth:`NetworkNode.deliver`.
        """
        nodes = self._nodes
        live = [device for device in map(nodes.__getitem__, receivers) if device.alive]
        if len(live) < len(receivers):
            self.stats.record_dropped_dead(message, len(receivers) - len(live))
            if not live:
                return
        kind = message.kind
        self.stats.delivered.update([(device.node_id, kind) for device in live])
        cost_receive = self.cost_model.receive
        if cost_receive > 0:
            for device in live:
                device.battery.draw(cost_receive)
            self.ledger.record_each(
                [device.node_id for device in live], "receive", cost_receive
            )
            live = [device for device in live if device.alive]
        self._dispatch(message, live, target)

    def _dispatch(self, message: Message, devices, target: Optional[int]) -> None:
        """One call for the devices' protocols, then their own handlers."""
        protocols = [
            device.protocol for device in devices if device.protocol is not None
        ]
        if protocols:
            self.burst_dispatch(message, protocols)
        for device in devices:
            handlers = device._handlers
            if handlers:
                overheard = target is not None and device.node_id != target
                for handler in handlers:
                    handler(message, overheard)

    # -- misc --------------------------------------------------------------

    def charge_cpu(self, node_id: int, multiplier: float = 1.0) -> None:
        """Charge one cache-maintenance run's CPU cost to ``node_id``."""
        self.charge_cpu_each((node_id,), multiplier)

    def charge_cpu_each(self, node_ids, multiplier: float = 1.0) -> None:
        """:meth:`charge_cpu` for each of ``node_ids``, in order.

        Dead nodes are skipped; each draw and ledger entry lands in id
        order, so battery and ledger sums match one call per node.
        """
        cost = self.cost_model.cpu_cache_update * multiplier
        if cost <= 0:
            return
        nodes = self._nodes
        charged = []
        for node_id in node_ids:
            node = nodes[node_id]
            if node.alive:
                node.battery.draw(cost)
                charged.append(node_id)
        self.ledger.record_each(charged, "cpu", cost)
