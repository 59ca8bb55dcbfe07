"""The shared radio medium.

Transmissions are broadcasts over a unit-disk neighborhood: every node
within the sender's transmission range is a potential receiver, and
each receiver independently loses the message with the link's loss
probability (the paper's ``P_loss``), drawn from the sender's own
``radio.<sender>`` stream.  A receiver that is dead when the message
arrives is booked as ``dropped_dead``.  A *unicast* is a broadcast with a
designated target: every receiver in range gets it, and non-targets
overhear it, which is what feeds the snooping-based model building of
§3 ("snooping ... values broadcast by its neighbor node in response to
a query").

A transmission's surviving receivers make one delivery *burst*, and one
event delivers a *wave* of bursts: a lone transmission's, or a §6.1
training tick's (:meth:`Radio.broadcast_wave`), in *runs* inside which
no receiver's liveness can change.  A run travels as ids and is booked
as loops over id-indexed columns: the liveness bytes and the energy of
:class:`~repro.network.state.DeviceState`, the node × kind delivery
counts of :class:`~repro.network.stats.MessageStats` and the node ×
category cells of the :class:`~repro.energy.EnergyLedger`.  The live
ids then go to the protocol layer in one call, which dispatches by
message type (see ``core.protocol``) and turns into objects only the
receivers a handler needs: the target alone for an addressed kind.
That call, :attr:`Radio.burst_dispatch`, is the one way a delivery
reaches code above the radio; tests observe deliveries by wrapping it.

Energy: the sender pays the transmit cost once per transmission (not per
receiver), receivers pay the receive cost (zero in the paper's
accounting), and both are booked in the ledger.  Deliveries are
scheduled :data:`LATENCY` time units after the send, so same-instant
protocol steps observe a consistent global order.

Booking rule: every message books once, by plain writes into cells the
radio finds once per wave, never through a per-message call into a
book's owner.  A send writes its battery columns, its transmit energy
cell and total, its ``(sender, kind)`` sent count, the ``message.sent``
trace count (a record only when one is kept or subscribed) and, while
the registry is enabled, the ``net.fanout`` cell; a delivery writes its
live receivers' cells of the kind's delivered column, and a one-burst
wave, every lone send's, is booked without run cuts.  At N=2000 with
12 neighbours and 6,000 timers queued, this took a lone unicast from
5.3 to 3.9 µs to send and from 4.5 to 3.1 µs to deliver, and a
training wave's send from 2.9 to 1.2 µs per report (2-vCPU VM).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial
from itertools import chain
from typing import Optional

import numpy as np

from repro.energy.accounting import EnergyLedger
from repro.energy.costs import PAPER_COST_MODEL, EnergyCostModel
from repro.network.links import PERFECT_LINKS, LossModel
from repro.network.messages import DataReport, Message
from repro.network.node import NetworkNode
from repro.network.state import DeviceState
from repro.network.stats import MessageStats
from repro.network.topology import Topology
from repro.simulation.engine import Simulator

__all__ = ["Radio"]

#: Event priority for message deliveries — they fire before timers
#: scheduled at the same instant, so protocol timeouts observe all
#: traffic that "already happened".
DELIVERY_PRIORITY = -1

#: Propagation delay between a send and its delivery burst, in time
#: units; small relative to protocol phase spacing.
LATENCY = 0.001

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
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        loss_model: LossModel = PERFECT_LINKS,
        cost_model: EnergyCostModel = PAPER_COST_MODEL,
        stats: Optional[MessageStats] = None,
        ledger: Optional[EnergyLedger] = None,
    ) -> None:
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
        #: :data:`LATENCY`, kept on the instance for the ``radio`` digest.
        self.latency = LATENCY
        self._nodes: dict[int, NetworkNode] = {}
        #: Every registered device's liveness byte and energy, by id.
        self.devices = DeviceState(len(topology))
        #: ``radio.<sender>`` streams, created on a sender's first draw.
        self._entity_rngs: dict[int, object] = {}
        #: The runtime's
        #: :class:`~repro.core.round_batch.BatchedObservationRouter`,
        #: which applies a long delivery run's overheard observations in
        #: one fleet sweep; ``None`` on a bare radio (no runtime) or
        #: without a fleet, where each is applied by itself.
        self.observation_router = None
        #: The protocol layer's burst entry point,
        #: ``burst_dispatch(messages, lives, devices)``: runs one
        #: delivery run's handlers for the live receivers' resident
        #: protocols, ``lives[i]`` the live ids of ``messages[i]``'s
        #: burst (``devices`` maps ids to this radio's devices).
        #: Set by the first protocol instance on this radio (a
        #: module-level function, so checkpoints pickle it by name).
        self.burst_dispatch = None

    # -- registration ------------------------------------------------------

    def register(self, node: NetworkNode) -> NetworkNode:
        """Register a device on the medium (one per topology id)."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        if node.node_id not in self.topology.node_ids:
            raise ValueError(f"node {node.node_id} not present in topology")
        self._nodes[node.node_id] = node
        node._bind(self.devices, node.node_id)
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
        """Ids of alive devices, ascending: registered, not crashed by
        fault injection, battery not depleted."""
        return self.devices.alive_ids()

    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` is in :meth:`alive_ids`, in O(1)."""
        return self.devices.is_alive(node_id)

    # -- transmission ------------------------------------------------------

    def broadcast(self, message: Message) -> bool:
        """Transmit ``message`` to every node in the sender's range.

        Returns ``False`` (and sends nothing) if the sender is dead.
        All in-range alive receivers get the message: a broadcast
        addresses everyone.
        """
        return self._transmit((message,), None)

    def unicast(self, message: Message, target: int) -> bool:
        """Transmit ``message`` addressed to ``target``.

        The medium is still broadcast: in-range non-targets overhear
        the message (subject to the same per-link loss), enabling
        snooping; the message's own address field names the target.
        """
        if target == message.sender:
            raise ValueError("a node does not unicast to itself")
        return self._transmit((message,), target)

    def broadcast_wave(self, messages) -> None:
        """:meth:`broadcast` each of ``messages``, in order, as one wave:
        each send is booked as :meth:`broadcast` books it, and one
        delivery event carries all their bursts.  A §6.1 training
        tick's reports: only :class:`DataReport`, whose handlers send
        nothing, so no handler's draw can empty a receiver that a later
        burst of the same run delivers to."""
        messages = tuple(messages)
        for message in messages:
            if type(message) is not DataReport:
                raise TypeError(f"a wave carries DataReports, not {message.kind}")
        self._transmit(messages, target=None)

    def _transmit(self, messages, target: Optional[int]) -> bool:
        """Send each of ``messages`` in order, then schedule one delivery
        event carrying their bursts (a *wave*).  Returns whether the
        last sender was alive: a dead one sends nothing.

        Each send is booked straight into its cells, found once per
        wave: the sender's battery, its transmit energy cell and the
        category total (:meth:`EnergyLedger.cells_for`), its
        ``(sender, kind)`` sent count, the ``message.sent`` trace count
        (a record is built only when one is kept or subscribed,
        :meth:`TraceLog.builds`) and, while the registry is enabled,
        the ``net.fanout`` cell.  Both gates, record building and the
        registry's switch, are read once per wave.

        A send's loss draw is one blocked :meth:`LossModel.loss_vector`
        call on the sender's own ``radio.<sender>`` stream, in
        ``out_neighbors`` order, and covers every in-range receiver
        regardless of liveness, so neither interleaving with other
        senders nor any receiver's state changes the stream position.
        A lossless model draws nothing, so its call is skipped; the
        stream is still created, as every sender's stream is part of
        the digested state.  The loss survivors' ids make the send's
        burst ``(message, receivers, target)``; dead ones among them
        are filtered, and booked as ``dropped_dead``, at delivery.
        Delivery reads no ``target`` (a message names its own
        addressee); it stays in the tuple that the ``queue`` digest
        describes and pending checkpoints hold.
        """
        simulator, devices, nodes = self.simulator, self.devices, self._nodes
        flags, charge, spent = devices.flags, devices.charge, devices.spent
        cost = self.cost_model.transmit
        energy, totals = self.ledger.cells_for("transmit", cost, len(flags))
        sent_counts = self.stats.sent
        trace = simulator.trace
        traced, trace_counts = trace.builds("message.sent"), trace.counts
        fanout, uppers = self._fanout.open_cell(), self._fanout.uppers
        out_neighbors, rngs = self.topology.out_neighbors, self._entity_rngs
        loss = self.loss_model
        lossless = loss.lossless
        bursts, sent = [], False
        for message in messages:
            sender = message.sender
            if sender not in nodes:
                raise KeyError(f"unregistered sender {sender}")
            sent = not flags[sender]
            if not sent:
                continue
            left = charge[sender]
            if cost < left:
                charge[sender] = left - cost
                spent[sender] += cost
            else:  # may empty the battery
                devices.draw(sender, cost)
            energy[sender] += cost
            totals["transmit"] += cost
            kind = message.kind
            sent_counts[(sender, kind)] += 1
            if traced:
                trace.emit(
                    simulator.now, "message.sent",
                    sender=sender, message_kind=kind, target=target,
                )
            else:
                trace_counts["message.sent"] += 1
            receivers = out_neighbors(sender)
            if fanout is not None:
                fanout.counts[bisect_left(uppers, len(receivers))] += 1
                fanout.count += 1
                fanout.sum += len(receivers)
            if not receivers:
                continue
            rng = rngs.get(sender)
            if rng is None:
                rng = self._sender_rng(sender)
            if not lossless:
                outcomes = loss.loss_vector(sender, receivers, rng)
                if not outcomes.all():
                    self.stats.record_dropped(
                        message, len(receivers) - int(outcomes.sum())
                    )
                    receivers = [rid for rid, ok in zip(receivers, outcomes) if ok]
            if receivers:
                bursts.append((message, receivers, target))
        if bursts:
            simulator.schedule(
                self.latency,
                partial(self._deliver_wave, bursts),
                bursts[0][0].delivery_label,
                DELIVERY_PRIORITY,
            )
        return sent

    def _sender_rng(self, sender: int):
        rng = self._entity_rngs.get(sender)
        if rng is None:
            rng = self._entity_rngs[sender] = self.simulator.random.stream(
                f"radio.{sender}"
            )
        return rng

    def _deliver_wave(self, bursts: list) -> None:
        """Deliver a wave's bursts in order, a run at a time: no
        receiver's liveness changes inside a run (:meth:`_run_end`), so
        it is booked column-wise (:meth:`_deliver_run`) with every
        per-cell, per-stream and per-cache arrival order of delivering
        its bursts one by one.  A wave of one burst, every lone send's, is
        its own run.  While no device is dead, a run's receivers are
        all live and are handed on without a liveness filter."""
        flags = self.devices.flags
        if len(bursts) == 1:
            message, receivers, _ = bursts[0]
            live = [rid for rid in receivers if not flags[rid]]
            dead = len(receivers) - len(live)
            self._deliver_run((message,), (live,), live, dead)
            return
        start = 0
        while start < len(bursts):
            end = self._run_end(bursts, start)
            messages, receivers, _ = zip(*bursts[start:end])
            if flags.count(0) == len(flags):  # no device is dead
                lives = receivers
            else:
                lives = [[rid for rid in ids if not flags[rid]] for ids in receivers]
            live = list(chain.from_iterable(lives))
            dead = sum(map(len, receivers)) - len(live)
            self._deliver_run(messages, lives, live, dead)
            start = end

    def _run_end(self, bursts: list, start: int) -> int:
        """The end of the run that starts at ``bursts[start]``.

        Each appearance of a live receiver is charged, in order, the
        draws its burst could make: the receive cost, then a snoop's
        CPU cost.  The run stops before the burst at which one of them
        would reach the receiver's charge (so infinite batteries never
        cut it) and, when both costs are drawn, at a receiver's second
        appearance, whose draws would otherwise reorder between the two
        costs.  The first burst always makes a run.
        """
        if start + 1 == len(bursts):
            return start + 1
        devices, model = self.devices, self.cost_model
        flags, charge = devices.flags, devices.charge
        costs = [c for c in (model.receive, model.cpu_cache_update) if c > 0]
        once = len(costs) > 1
        exact = once or min(charge) < math.inf
        left: dict[int, float] = {}
        end = start
        for _, receivers, _ in bursts[start:]:
            for rid in receivers if exact else ():
                if flags[rid]:
                    continue
                remaining = left.get(rid)
                if once and remaining is not None:
                    return max(end, start + 1)
                remaining = charge[rid] if remaining is None else remaining
                for cost in costs:
                    if not cost < remaining:
                        return max(end, start + 1)
                    remaining -= cost
                left[rid] = remaining
            end += 1
        return end

    def _deliver_run(self, messages, lives, live: list, dead: int) -> None:
        """Deliver one run of bursts, booked over ids as columns: burst
        ``i`` carries ``messages[i]``, ``lives[i]`` holds the ids of its
        receivers alive on arrival, ``live`` all of them in order, and
        ``dead`` counts the others.

        The dead are counted as ``dropped_dead``, the live as delivered
        (straight into the kind's column), and a nonzero receive cost is
        drawn — dropping the receivers it drains, which only a run of
        one burst can do.  The live ids then go to the protocols in one
        :attr:`burst_dispatch` call.  Nothing a node's handler does or
        sends can change another receiver's liveness, so this is the
        per-receiver outcome of :meth:`NetworkNode.deliver`.
        """
        devices = self.devices
        message = messages[0]
        if dead:
            self.stats.record_dropped_dead(message, dead)
        if not live:
            return
        delivered = self.stats.delivered.column(message.kind, 1, len(devices.flags))
        for rid in live:
            delivered[rid] += 1
        cost_receive = self.cost_model.receive
        if cost_receive > 0:
            flags = devices.flags
            drawn = devices.draw_each(live, cost_receive)
            self.ledger.record_each(drawn, "receive", cost_receive)
            lives = [[rid for rid in ids if not flags[rid]] for ids in lives]
        if self.burst_dispatch is not None:
            self.burst_dispatch(messages, lives, self._nodes)

    # -- misc --------------------------------------------------------------

    def charge_cpu(self, node_id: int) -> None:
        """Charge one cache-maintenance run's CPU cost to ``node_id``."""
        self.charge_cpu_each((node_id,))

    def charge_cpu_each(self, node_ids) -> None:
        """:meth:`charge_cpu` for each of ``node_ids``, in order.

        Dead nodes are skipped; each draw and ledger entry lands in id
        order, so battery and ledger sums match one call per node.  An
        id array is charged column-wise (:meth:`DeviceState.draw_column`,
        :meth:`EnergyLedger.record_column`) unless one of its nodes is
        dead or would be emptied, which only a run of one burst can do.
        """
        cost = self.cost_model.cpu_cache_update
        if cost <= 0:
            return
        if isinstance(node_ids, np.ndarray):
            if self.devices.draw_column(node_ids, cost):
                self.ledger.record_column(node_ids, "cpu", cost)
                return
            node_ids = node_ids.tolist()
        self.ledger.record_each(self.devices.draw_each(node_ids, cost), "cpu", cost)
