"""Property-based tests of the radio medium."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.links import GlobalLoss
from repro.network.messages import Invitation
from repro.network.radio import Radio
from repro.network.topology import Topology
from repro.simulation.engine import Simulator

from tests.network.deliveries import observe_deliveries


@st.composite
def radio_setups(draw):
    n = draw(st.integers(min_value=2, max_value=15))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    positions = [(float(x), float(y)) for x, y in rng.random((n, 2))]
    reach = draw(st.floats(min_value=0.1, max_value=1.5))
    loss = draw(st.floats(min_value=0.0, max_value=1.0))
    simulator = Simulator(seed=seed)
    radio = Radio(
        simulator, Topology(positions, reach), loss_model=GlobalLoss(loss)
    )
    radio.populate()
    return simulator, radio


@given(radio_setups(), st.integers(min_value=0, max_value=14))
@settings(max_examples=60, deadline=None)
def test_broadcast_delivery_bounded_by_neighborhood(setup, sender_choice):
    simulator, radio = setup
    sender = sender_choice % len(radio.topology)
    received: list[int] = []
    observe_deliveries(radio, lambda message, rid: received.append(rid))
    radio.broadcast(Invitation(sender=sender, value=0.0, epoch=1))
    simulator.run()
    neighborhood = set(radio.topology.out_neighbors(sender))
    assert set(received) <= neighborhood
    assert sender not in received
    # conservation: delivered + dropped == in-range receivers
    delivered = sum(
        count for (__, kind), count in radio.stats.delivered.items()
        if kind == "Invitation"
    )
    dropped = radio.stats.dropped["Invitation"]
    assert delivered + dropped == len(neighborhood)


@given(radio_setups())
@settings(max_examples=40, deadline=None)
def test_energy_conservation(setup):
    """Every transmission charges exactly one transmit cost, and the
    ledger's total equals sent-count times the unit price."""
    simulator, radio = setup
    n = len(radio.topology)
    rng = np.random.default_rng(7)
    for _ in range(10):
        sender = int(rng.integers(0, n))
        radio.broadcast(Invitation(sender=sender, value=0.0, epoch=1))
    simulator.run()
    assert radio.ledger.total("transmit") == radio.stats.total_sent() * 1.0
    total_spent = sum(
        radio.node(node_id).battery.spent for node_id in radio.topology.node_ids
    )
    assert total_spent == radio.ledger.total()
