"""Differential proof of the radio's burst dispatch.

A transmission's survivors form one delivery *burst*, and one event
delivers a *wave* of bursts: a single burst, or all of a training tick's
reports.  The radio books a run of a wave's bursts in one pass
(liveness, counters, receive energy) and then hands the live receivers'
protocols the whole run in one call through the protocol layer's
per-message-type table, columnar for ``DataReport`` snoops.  The
reference here is a test-only per-receiver medium: burst by burst, each
survivor, in turn, is checked for liveness, counted, charged its receive
cost and handed the message through ``NetworkNode.deliver`` →
``ProtocolNode._on_message``, the way a receiver-by-receiver radio runs
a delivery.  Whole runs must digest equal, with ``StateDigest.diff``
naming the first divergent component when they do not, over:

* lossless links and ``GlobalLoss(0.3)``;
* finite batteries with a nonzero receive cost, so receivers die in the
  middle of a burst;
* finite batteries drained by training's snoop charges, so receivers
  die in the middle of a training tick's wave;
* a crash/revive chaos schedule;
* message-driven query collection (the TAG oracle of
  ``tests/query/tag_oracle.py``), whose rounds attach per-device
  handlers next to the protocol;
* a free transmit, so the ledger holds ``0.0`` cells;
* addressed bursts whose target is dead on arrival, has no protocol,
  or is drained by the burst's own receive cost.

Where the two sides' energy and delivery books are compared cell by
cell, the reference keeps them in plain ``Counter`` objects
(:func:`plain_books`), the per-key accounting the burst's columns
replace.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import ProtocolNode
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.energy.accounting import EnergyLedger
from repro.energy.costs import EnergyCostModel
from repro.faults import chaos
from repro.faults.chaos import ChaosConfig, ChaosRun
from repro.models.cache import BYTES_PER_PAIR
from repro.models.cache_manager import ModelAwareCache
from repro.network import radio as radio_module
from repro.network.links import GlobalLoss
from repro.network.messages import DataReport, Heartbeat
from repro.network.state import DeviceState
from repro.network.topology import Topology, uniform_random_topology
from repro.obs.registry import CounterMetric
from repro.persist import RoundDigestRecorder
from repro.query.ast import Aggregate, Query
from repro.query.executor import QueryExecutor
from tests.query.tag_oracle import collect
from repro.query.spatial import random_square
from repro.simulation.engine import Simulator

from tests.persist.conftest import HORIZON, N_NODES, PERIOD, SCRIPT


class Radio(radio_module.Radio):
    """The per-receiver reference medium.

    It shares the production class's name on purpose: digests describe
    a pending delivery by its callback's qualified name and owner type,
    so in-flight bursts digest equal on both sides.

    Its sends are booked one call per book per message, the way the
    owners' own record methods book them: ``ledger.record``,
    ``stats.record_sent``, ``trace.emit``, ``net.fanout``'s ``observe``
    and ``simulator.schedule`` with the label built per send.
    """

    def _transmit(self, messages, target):
        devices, cost = self.devices, self.cost_model.transmit
        bursts, sent = [], False
        for message in messages:
            sender = message.sender
            if sender not in self._nodes:
                raise KeyError(f"unregistered sender {sender}")
            sent = not devices.flags[sender]
            if not sent:
                continue
            devices.draw(sender, cost)
            self.ledger.record(sender, "transmit", cost)
            self.stats.record_sent(message)
            self.simulator.trace.emit(
                self.simulator.now, "message.sent",
                sender=sender, message_kind=message.kind, target=target,
            )
            receivers = self.topology.out_neighbors(sender)
            self._fanout.observe(len(receivers))
            if not receivers:
                continue
            rng = self._sender_rng(sender)
            if not self.loss_model.lossless:
                outcomes = self.loss_model.loss_vector(sender, receivers, rng)
                if not outcomes.all():
                    self.stats.record_dropped(
                        message, len(receivers) - int(outcomes.sum())
                    )
                    receivers = [rid for rid, ok in zip(receivers, outcomes) if ok]
            if receivers:
                bursts.append((message, receivers, target))
        if bursts:
            self.simulator.schedule(
                self.latency,
                partial(self._deliver_wave, bursts),
                label=f"deliver:{bursts[0][0].kind}",
                priority=radio_module.DELIVERY_PRIORITY,
            )
        return sent

    def _deliver_wave(self, bursts):
        for message, receivers, target in bursts:
            self._deliver_batch(message, receivers, target)

    def _deliver_batch(self, message, receivers, target):
        cost_receive = self.cost_model.receive
        kind = message.kind
        for rid in receivers:
            device = self._nodes[rid]
            if not device.alive:
                self.stats.record_dropped_dead(message, 1)
                continue
            self.stats.delivered[(rid, kind)] += 1
            if cost_receive > 0:
                device.battery.draw(cost_receive)
                self.ledger.record(rid, "receive", cost_receive)
                if not device.alive:
                    continue
            device.deliver(message, target is not None and rid != target)


def per_receiver(runtime: SnapshotRuntime) -> SnapshotRuntime:
    """Switch ``runtime`` to the reference medium (before it runs)."""
    runtime.radio.__class__ = Radio
    return runtime


def _per_receiver_runtime(*args, **kwargs) -> SnapshotRuntime:
    return per_receiver(SnapshotRuntime(*args, **kwargs))


class PlainLedger(EnergyLedger):
    """The ledger booking cell by cell into a plain ``Counter``."""

    def record_each(self, node_ids, category, amount):
        assert category in self.CATEGORIES and amount >= 0
        for node_id in node_ids:
            self._cells[(node_id, category)] += amount
            self._totals[category] += amount


def plain_books(radio):
    """Keep ``radio``'s delivery counts and ledger cells in plain
    ``Counter`` objects, exported as the registry's metrics (before it
    sends anything)."""
    registry = radio.simulator.metrics
    books = {}
    for name in ("energy.draw", "net.messages.delivered"):
        column = registry.metric(name)
        plain = CounterMetric(registry, name, column.label_names, essential=True)
        registry._metrics[name] = plain
        books[name] = plain.cells
    radio.ledger.__class__ = PlainLedger
    radio.ledger._cells = books["energy.draw"]
    radio.stats.delivered = books["net.messages.delivered"]
    return radio


def booked_rows(runtime_or_radio):
    """The ledger totals and the exported energy and delivery cells."""
    registry = runtime_or_radio.simulator.metrics
    ledger = runtime_or_radio.ledger
    return (
        [ledger.total(category) for category in EnergyLedger.CATEGORIES],
        [
            row
            for row in registry.rows()
            if row["name"] in ("energy.draw", "net.messages.delivered")
        ],
    )


def build(
    seed, loss=0.0, battery=None, receive=0.0, reference=False, transmit=1.0,
    keep_records=True,
):
    data_rng = np.random.default_rng(seed)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=N_NODES, n_classes=3, length=200), data_rng
    )
    topology = uniform_random_topology(N_NODES, 1.5, data_rng)
    runtime = SnapshotRuntime(
        topology,
        dataset,
        ProtocolConfig(threshold=1.0, heartbeat_period=PERIOD, rule4_retry=0.1),
        seed=seed,
        loss_model=GlobalLoss(loss),
        battery_capacity=battery,
        cost_model=EnergyCostModel(
            transmit=transmit, receive=receive, cpu_cache_update=0.1
        ),
        keep_trace_records=keep_records,
    )
    runtime.round_digests = RoundDigestRecorder(runtime)
    if reference:
        plain_books(per_receiver(runtime).radio)
    return runtime


def _messaged(aggregate):
    """A query collected by TAG rounds of real messages (the oracle of
    ``tests/query/tag_oracle.py``): its handlers ride each tree member's
    device."""

    def step(runtime):
        executor = QueryExecutor(runtime)
        region = random_square(0.6, runtime.simulator.random.stream("burst-regions"))
        query = Query(
            region=region,
            aggregate=Aggregate.AVG if aggregate else None,
            use_snapshot=True,
        )
        try:
            outcome = collect(executor, query)
        except RuntimeError:
            return  # every node dead — still a trajectory to compare
        delivered = len(outcome.delivered_reports)
        runtime.collected = getattr(runtime, "collected", 0) + delivered

    return step


def _advance(time):
    def step(runtime):
        runtime.advance_to(time)

    return step


#: The persist suite's script with message-driven queries in between.
MESSAGED_SCRIPT = SCRIPT[:4] + (
    _messaged(aggregate=False),
    _advance(80.0),
    _messaged(aggregate=True),
    _advance(105.0),
    _messaged(aggregate=False),
    _advance(HORIZON),
)


def run(script, **kwargs):
    runtime = build(**kwargs)
    for step in script:
        step(runtime)
    return runtime


def assert_same_books(burst, reference):
    """Every book of two radios (or runtimes) agrees, cell for cell:
    the registry's exported rows (energy, sent, delivered, dropped,
    ``net.fanout``, ...), the ledger's float totals, the trace's counts
    and kept records, and the ``radio.<id>`` streams created."""
    registry, theirs = burst.simulator.metrics, reference.simulator.metrics
    assert list(registry.rows()) == list(theirs.rows())
    assert [burst.ledger.total(c) for c in EnergyLedger.CATEGORIES] == [
        reference.ledger.total(c) for c in EnergyLedger.CATEGORIES
    ]
    trace, their_trace = burst.simulator.trace, reference.simulator.trace
    assert trace.counts == their_trace.counts
    assert trace.records == their_trace.records
    radio = getattr(burst, "radio", burst)
    their_radio = getattr(reference, "radio", reference)
    assert {
        sender: rng.bit_generator.state for sender, rng in radio._entity_rngs.items()
    } == {
        sender: rng.bit_generator.state
        for sender, rng in their_radio._entity_rngs.items()
    }


def assert_same_run(burst, reference):
    """The burst run equals the per-receiver one, digest for digest."""
    ours, theirs = burst.state_digest(), reference.state_digest()
    assert ours.whole == theirs.whole, (
        f"burst dispatch diverges from per-receiver delivery in {ours.diff(theirs)}"
    )
    assert burst.round_digests.rounds == reference.round_digests.rounds
    assert_same_books(burst, reference)
    assert burst.simulator.events_processed == reference.simulator.events_processed


@pytest.mark.parametrize("loss", [0.0, 0.3], ids=["lossless", "lossy"])
def test_burst_matches_per_receiver(loss):
    burst = run(SCRIPT, seed=21, loss=loss)
    reference = run(SCRIPT, seed=21, loss=loss, reference=True)
    assert isinstance(reference.radio, Radio)
    assert type(burst.radio) is radio_module.Radio
    assert_same_run(burst, reference)
    assert burst.round_digests.rounds, "script must complete maintenance rounds"


@pytest.mark.parametrize(
    "battery,addressed",
    [
        # drained mid training burst: no addressed message is ever sent
        pytest.param(35.0, (), id="die-snooping"),
        # drained by election traffic
        pytest.param(45.0, ("Accept",), id="die-electing"),
        # drained through heartbeats: addressed bursts while nodes die
        pytest.param(80.0, ("Accept", "HeartbeatReply"), id="die-maintaining"),
    ],
)
def test_burst_matches_per_receiver_with_receive_cost(battery, addressed):
    """Receivers drained by their receive draw drop out of the burst."""
    kwargs = dict(seed=8, loss=0.3, battery=battery, receive=0.5)
    burst = run(SCRIPT, **kwargs)
    reference = run(SCRIPT, **kwargs, reference=True)
    assert_same_run(burst, reference)
    # Non-vacuity: receptions were paid for, nodes died under traffic,
    # and the addressed kinds the case is named for were really sent.
    assert burst.ledger.total("receive") > 0
    assert sum(burst.stats.dropped_dead.values()) > 0
    for kind in addressed:
        assert burst.stats.sent_of_kind(kind) > 0, kind


def test_burst_matches_per_receiver_when_snoops_drain_batteries(monkeypatch):
    """Training's CPU charges empty batteries in the middle of a tick:
    the wave's run stops before the burst whose snoops could empty one,
    so a node drained by one burst is dead on arrival in the next."""
    cuts = []
    run_end = radio_module.Radio._run_end

    def spy(radio, bursts, start):
        end = run_end(radio, bursts, start)
        cuts.append(end < len(bursts))
        return end

    monkeypatch.setattr(radio_module.Radio, "_run_end", spy)
    # A free transmit and receive: only the snoops' CPU draws drain.
    kwargs = dict(seed=8, battery=3.0, transmit=0.0)
    burst, reference = build(**kwargs), build(**kwargs, reference=True)
    for runtime in (burst, reference):
        SCRIPT[0](runtime)  # train()
    # Non-vacuity: nodes died inside train(), and runs were cut.
    assert len(burst.alive_ids()) < N_NODES
    assert any(cuts)
    for runtime in (burst, reference):
        for step in SCRIPT[1:]:
            step(runtime)
    assert_same_run(burst, reference)


@pytest.mark.parametrize(
    "keep_records,subscribed",
    [(True, True), (False, True), (False, False)],
    ids=["kept", "subscribed", "counted"],
)
def test_send_records_match_per_message_emits(keep_records, subscribed):
    """A ``message.sent`` subscriber sees every send's record, in send
    order, with or without stored records; with neither, only the
    count moves."""
    runs = []
    for reference in (False, True):
        runtime = build(seed=21, loss=0.3, reference=reference, keep_records=keep_records)
        seen = []
        if subscribed:
            runtime.simulator.trace.subscribe("message.sent", seen.append)
        for step in SCRIPT:
            step(runtime)
        runs.append((runtime, seen))
    (burst, ours), (reference, theirs) = runs
    assert_same_run(burst, reference)
    assert ours == theirs
    sent = burst.stats.total_sent()
    assert burst.simulator.trace.count("message.sent") == sent > 0
    assert (burst.simulator.trace.records == []) is not keep_records
    if not subscribed:
        assert ours == []
        return
    # Non-vacuity: training waves, broadcasts and addressed sends.
    assert len(ours) == sent
    assert {record.payload["message_kind"] for record in ours} >= {
        "DataReport", "Invitation", "Heartbeat", "HeartbeatReply"
    }
    assert any(record.payload["target"] is not None for record in ours)


def test_burst_matches_per_receiver_when_transmits_drain_senders(monkeypatch):
    """A sender whose own transmit draw empties its battery in the
    middle of a training wave still sends that report, and is dead on
    arrival of the wave's bursts that reach it.  Staggered charges make
    nodes die at different ticks, some by their transmit, some by
    snooping, and leave some alive for the rest of the script."""
    kwargs = dict(seed=8, battery=16.0)
    burst, reference = build(**kwargs), build(**kwargs, reference=True)
    for runtime in (burst, reference):
        for node_id, device in runtime.radio.nodes.items():
            device.battery.draw(0.35 * node_id)
    drained = []
    draw = DeviceState.draw

    def spy(devices, slot, amount):
        drawn = draw(devices, slot, amount)
        if devices is burst.radio.devices and amount == 1.0 and devices.flags[slot]:
            drained.append(slot)
        return drawn

    monkeypatch.setattr(DeviceState, "draw", spy)
    for runtime in (burst, reference):
        SCRIPT[0](runtime)  # train()
    # Non-vacuity: transmits emptied senders that were not the last of
    # their wave, the wave's bursts found them dead, and nodes survive.
    assert drained and max(drained) < N_NODES - 1
    assert burst.stats.dropped_dead["DataReport"] > 0
    assert 0 < len(burst.alive_ids()) < N_NODES - len(drained)
    for runtime in (burst, reference):
        for step in SCRIPT[1:]:
            step(runtime)
    assert_same_run(burst, reference)


def test_burst_matches_per_receiver_with_messaged_queries():
    """Collection handlers attached to devices run in the same burst."""
    burst = run(MESSAGED_SCRIPT, seed=5)
    reference = run(MESSAGED_SCRIPT, seed=5, reference=True)
    assert_same_run(burst, reference)
    assert burst.collected == reference.collected
    assert burst.collected > 0, "the collection handlers must receive reports"


def test_burst_matches_per_receiver_through_chaos(monkeypatch):
    """Crashes, revivals, partitions and a loss burst."""
    config = ChaosConfig(
        seed=17, n_nodes=8, n_faults=6, loss_burst=0.2, keep_trace_records=True
    )
    results = []
    for reference in (False, True):
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(chaos, "SnapshotRuntime", _per_receiver_runtime)
            run_ = ChaosRun(config)
            run_.start()
            results.append(run_.finish())
    burst, reference = results
    assert isinstance(reference.runtime.radio, Radio)
    ours = burst.runtime.state_digest()
    theirs = reference.runtime.state_digest()
    assert ours.whole == theirs.whole, (
        f"burst dispatch diverges from per-receiver delivery in {ours.diff(theirs)}"
    )
    assert (burst.ok, burst.crashes, burst.revivals, burst.reelections) == (
        reference.ok, reference.crashes, reference.revivals, reference.reelections
    )
    assert burst.crashes > 0 and burst.revivals > 0  # faults really fired


def test_burst_matches_per_receiver_with_free_transmit():
    """A zero transmit cost books a ``0.0`` cell per sender; the columns
    keep them, bit for bit, as the per-key books do."""
    kwargs = dict(seed=8, loss=0.3, battery=40.0, receive=0.5, transmit=0.0)
    burst = run(SCRIPT, **kwargs)
    reference = run(SCRIPT, **kwargs, reference=True)
    assert isinstance(reference.ledger, PlainLedger)
    assert_same_run(burst, reference)
    assert booked_rows(burst) == booked_rows(reference)
    zero_cells = [
        row for row in booked_rows(burst)[1]
        if row["name"] == "energy.draw" and row["labels"]["category"] == "transmit"
    ]
    senders = {sender for sender, _ in burst.stats.sent}
    assert {row["labels"]["node"] for row in zero_cells} == senders
    assert all(row["value"] == 0.0 for row in zero_cells)


# ----------------------------------------------------------------------
# addressed bursts
# ----------------------------------------------------------------------

CLUSTER = 6
NO_PROTOCOL = CLUSTER - 1
RECEIVE = 0.5


def cluster(reference: bool):
    """Nodes all in range on a bare radio, finite batteries, a free
    transmit and a receive cost; the last device runs no protocol."""
    simulator = Simulator(seed=4)
    topology = Topology([(0.1 * i, 0.0) for i in range(CLUSTER)], ranges=2.0)
    radio = (Radio if reference else radio_module.Radio)(
        simulator,
        topology,
        cost_model=EnergyCostModel(transmit=0.0, receive=RECEIVE, cpu_cache_update=0.1),
    )
    if reference:
        plain_books(radio)
    radio.populate(battery_capacity=20.0)
    config = ProtocolConfig(threshold=10.0)
    for node_id in range(NO_PROTOCOL):
        ProtocolNode(
            node_id,
            radio,
            ModelAwareCache(BYTES_PER_PAIR * 64),
            config,
            value_fn=lambda nid=node_id: float(nid),
            location=topology.position(node_id),
        )
    return simulator, radio


def addressed_script(simulator, radio):
    """Heartbeats to a live target, a dead one, a device without a
    protocol and a target the burst itself drains; each live target
    replies (and snoops), so a burst handed to the wrong receiver shows
    in the sent, delivered and energy books."""

    def heartbeat(sender, target):
        radio.unicast(Heartbeat(sender=sender, target=target, value=1.0), target)
        simulator.run_until(simulator.now + 1.0)

    radio.broadcast(DataReport(sender=1, query_id=0, origin=1, value=1.0))
    simulator.run_until(simulator.now + 1.0)
    heartbeat(1, 0)  # live: replies
    radio.node(3).fail()
    heartbeat(2, 3)  # dead on arrival
    heartbeat(1, NO_PROTOCOL)  # no protocol to wake
    battery = radio.node(0).battery
    battery.draw(battery.charge - RECEIVE)
    heartbeat(2, 0)  # the burst's receive draw empties the target
    heartbeat(4, 2)  # live again


def test_addressed_bursts_wake_only_a_live_target():
    runs = []
    for reference in (False, True):
        simulator, radio = cluster(reference)
        addressed_script(simulator, radio)
        runs.append(radio)
    burst, oracle = runs
    assert type(burst) is radio_module.Radio and isinstance(oracle, Radio)
    assert booked_rows(burst) == booked_rows(oracle)
    assert burst.stats.sent == oracle.stats.sent
    assert burst.stats.dropped_dead == oracle.stats.dropped_dead
    for node_id in range(CLUSTER):
        ours, theirs = burst.node(node_id).battery, oracle.node(node_id).battery
        assert (ours.charge, ours.spent) == (theirs.charge, theirs.spent)
    # Non-vacuity: two live targets replied, the drained one did not.
    assert burst.stats.sent_of_kind("HeartbeatReply") == 2
    assert not burst.is_alive(0) and burst.stats.dropped_dead["Heartbeat"] >= 1


def test_sender_without_out_neighbours_books_a_send_and_schedules_nothing():
    """An isolated sender pays and counts its send, observes a fan-out
    of 0 and creates no stream; a wave whose every sender is isolated
    schedules no delivery."""
    runs = []
    for reference in (False, True):
        simulator = Simulator(seed=4)
        positions = [(0.1 * i, 0.0) for i in range(3)] + [(5.0, 5.0)]
        topology = Topology(positions, ranges=2.0)
        radio = (Radio if reference else radio_module.Radio)(simulator, topology)
        if reference:
            plain_books(radio)
        radio.populate(battery_capacity=20.0)
        lone = 3
        assert radio.topology.out_neighbors(lone) == ()
        assert radio.broadcast(Heartbeat(sender=lone, target=0, value=1.0))
        assert len(simulator.queue) == 0
        radio.broadcast_wave(
            [DataReport(sender=lone, query_id=0, origin=lone, value=1.0)] * 2
        )
        assert len(simulator.queue) == 0
        radio.broadcast_wave(
            DataReport(sender=i, query_id=0, origin=i, value=1.0) for i in (lone, 1)
        )
        assert len(simulator.queue) == 1
        simulator.run()
        runs.append(radio)
    burst, oracle = runs
    assert_same_books(burst, oracle)
    assert burst.stats.sent[(3, "DataReport")] == 3
    assert set(burst._entity_rngs) == {1}
    fanout = burst.simulator.metrics.histogram("net.fanout", radio_module.FANOUT_BUCKETS)
    assert (fanout.cell().count, fanout.cell().counts[0]) == (5, 4)


def test_wave_refuses_kinds_whose_handlers_send():
    """A wave carries only ``DataReport``s: a run guard books no
    handler's transmit draw, so a kind whose handlers send is refused
    before any send of the wave is booked."""
    simulator, radio = cluster(reference=False)
    report = DataReport(sender=1, query_id=0, origin=1, value=1.0)
    heartbeat = Heartbeat(sender=2, target=0, value=1.0)
    with pytest.raises(TypeError, match="Heartbeat"):
        radio.broadcast_wave([report, heartbeat])
    assert radio.stats.sent == {} and len(simulator.queue) == 0
