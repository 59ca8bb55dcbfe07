"""Tests for the broadcast radio medium."""

from __future__ import annotations

import pytest

from repro.energy.battery import Battery
from repro.energy.costs import EnergyCostModel
from repro.network.links import GlobalLoss
from repro.network.messages import Invitation
from repro.network.node import NetworkNode
from repro.network.radio import Radio
from repro.network.topology import Topology
from repro.simulation.engine import Simulator

from tests.network.deliveries import observe_deliveries


def make_radio(
    positions, ranges=2.0, loss=0.0, cost_model=None, battery=None
) -> tuple[Simulator, Radio]:
    simulator = Simulator(seed=3)
    radio = Radio(
        simulator,
        Topology(positions, ranges),
        loss_model=GlobalLoss(loss),
        cost_model=cost_model or EnergyCostModel(),
    )
    radio.populate(battery_capacity=battery)
    return simulator, radio


def received_log(radio: Radio) -> list[tuple[int, str]]:
    """``(receiver, kind)`` of every delivery the radio makes from now on."""
    log: list[tuple[int, str]] = []
    observe_deliveries(radio, lambda message, rid: log.append((rid, message.kind)))
    return log


class TestBroadcast:
    def test_reaches_all_in_range(self):
        simulator, radio = make_radio([(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)])
        log = received_log(radio)
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        assert sorted(entry[0] for entry in log) == [1, 2]

    def test_range_limits_delivery(self):
        simulator, radio = make_radio([(0.0, 0.0), (0.5, 0.0), (5.0, 0.0)])
        log = received_log(radio)
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        assert [entry[0] for entry in log] == [1]

    def test_sender_never_hears_itself(self):
        simulator, radio = make_radio([(0.0, 0.0), (0.1, 0.0)])
        log = received_log(radio)
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        assert all(entry[0] != 0 for entry in log)

    def test_dead_sender_sends_nothing(self):
        simulator, radio = make_radio([(0.0, 0.0), (0.1, 0.0)], battery=0.0)
        log = received_log(radio)
        assert radio.broadcast(Invitation(sender=0, value=1.0, epoch=1)) is False
        simulator.run()
        assert log == []

    def test_dead_receiver_gets_nothing(self):
        simulator, radio = make_radio([(0.0, 0.0), (0.1, 0.0)], battery=5.0)
        log = received_log(radio)
        radio.node(1).battery.draw(5.0)
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        assert log == []

    def test_full_loss_drops_everything(self):
        simulator, radio = make_radio([(0.0, 0.0), (0.1, 0.0)], loss=1.0)
        log = received_log(radio)
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        assert log == []
        assert radio.stats.dropped["Invitation"] == 1


class TestUnicast:
    def test_target_vs_overhearers(self):
        """The medium is broadcast: the target and an overhearer both
        receive a unicast."""
        simulator, radio = make_radio([(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)])
        log = received_log(radio)
        radio.unicast(Invitation(sender=0, value=1.0, epoch=1), target=1)
        simulator.run()
        assert sorted(log) == [(1, "Invitation"), (2, "Invitation")]

    def test_self_unicast_rejected(self):
        __, radio = make_radio([(0.0, 0.0), (0.1, 0.0)])
        with pytest.raises(ValueError):
            radio.unicast(Invitation(sender=0, value=1.0, epoch=1), target=0)


class TestAccounting:
    def test_transmit_energy_charged_once(self):
        simulator, radio = make_radio(
            [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)], battery=10.0
        )
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        assert radio.node(0).battery.charge == pytest.approx(9.0)
        drawn = {key: value for key, value in radio.ledger._cells.items() if key[0] == 0}
        assert drawn == {(0, "transmit"): pytest.approx(1.0)}

    def test_receive_energy_charged(self):
        simulator, radio = make_radio(
            [(0.0, 0.0), (0.1, 0.0)],
            cost_model=EnergyCostModel(receive=0.25),
            battery=10.0,
        )
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        assert radio.node(1).battery.charge == pytest.approx(9.75)

    def test_receive_that_drains_the_battery_is_not_handled(self):
        simulator = Simulator(seed=3)
        radio = Radio(
            simulator,
            Topology([(0.0, 0.0), (0.1, 0.0)], 2.0),
            cost_model=EnergyCostModel(receive=0.25),
        )
        radio.populate(battery_capacity=10.0)
        radio.node(1).battery.draw(9.75)
        log = received_log(radio)
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        # The receive is paid and counted, but a node it kills handles nothing.
        assert not radio.node(1).alive
        assert radio.ledger._cells[(1, "receive")] == pytest.approx(0.25)
        assert radio.stats.delivered[(1, "Invitation")] == 1
        assert log == []

    def test_depletion_callback_moves_with_the_battery(self):
        """A callback given before registration moves into the radio's
        columns and fires once, at the burst draw that empties it."""
        simulator = Simulator(seed=3)
        radio = Radio(
            simulator,
            Topology([(0.0, 0.0), (0.1, 0.0)], 2.0),
            cost_model=EnergyCostModel(receive=0.5),
        )
        fired = []
        radio.register(NetworkNode(0, Battery(None)))
        radio.register(NetworkNode(1, Battery(1.0, on_depleted=lambda: fired.append(1))))
        for _ in range(3):
            radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
            simulator.run()
        assert fired == [1] and not radio.node(1).alive
        assert radio.node(1).battery.spent == 1.0
        assert radio.stats.dropped_dead["Invitation"] == 1

    def test_stats_counters(self):
        simulator, radio = make_radio([(0.0, 0.0), (0.1, 0.0)])
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        assert radio.stats.sent == {(0, "Invitation"): 1}
        assert radio.stats.sent_of_kind("Invitation") == 1
        assert radio.stats.delivered[(1, "Invitation")] == 1

    def test_charge_cpu(self):
        __, radio = make_radio([(0.0, 0.0), (0.1, 0.0)], battery=10.0)
        radio.charge_cpu(0)
        assert radio.node(0).battery.charge == pytest.approx(9.9)
        assert radio.ledger._cells[(0, "cpu")] == pytest.approx(0.1)

    def test_node_death_via_transmissions(self):
        simulator, radio = make_radio([(0.0, 0.0), (0.1, 0.0)], battery=2.0)
        for _ in range(3):
            radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
        simulator.run()
        assert not radio.node(0).alive
        assert radio.stats.sent[(0, "Invitation")] == 2  # third send was refused


class TestRegistration:
    def test_duplicate_rejected(self):
        __, radio = make_radio([(0.0, 0.0), (0.1, 0.0)])
        with pytest.raises(ValueError):
            radio.register(NetworkNode(0, Battery(None)))

    def test_unknown_topology_id_rejected(self):
        simulator = Simulator()
        radio = Radio(simulator, Topology([(0.0, 0.0)], 1.0))
        with pytest.raises(ValueError):
            radio.register(NetworkNode(5, Battery(None)))

    def test_unregistered_sender_raises(self):
        simulator = Simulator()
        radio = Radio(simulator, Topology([(0.0, 0.0), (1.0, 1.0)], 2.0))
        with pytest.raises(KeyError):
            radio.broadcast(Invitation(sender=0, value=1.0, epoch=1))
