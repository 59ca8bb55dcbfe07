"""The radio's one fan-out: a blocked loss draw and one delivery event.

A transmission samples the loss of every in-range receiver with one
:meth:`LossModel.loss_vector` call on the sender's own ``radio.<sender>``
stream, dead receivers included, and schedules a single delivery event
for the survivors.  These tests pin what that rests on:

* ``LossModel.loss_vector`` consumes a stream draw-for-draw identically
  to per-receiver scalar draws (``scalar_delivered``), for every bundled
  model and for a model that defines only ``loss_probability``;
* a dead receiver is booked as ``dropped_dead`` at delivery and changes
  no other receiver's loss outcome and no sender stream's state;
* ``net.fanout`` counts in-range receivers per transmission, dead ones
  included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.links import (
    DistanceLoss,
    GlobalLoss,
    LossModel,
    PerLinkLoss,
)
from repro.network.messages import Invitation
from repro.network.radio import FANOUT_BUCKETS, Radio
from repro.simulation.engine import Simulator

from tests.conftest import grid_topology, scalar_delivered
from tests.network.deliveries import observe_deliveries


class _ScalarOnlyLoss(LossModel):
    """A third-party model that defines only ``loss_probability``."""

    def __init__(self, probability: float) -> None:
        self.probability = probability

    def loss_probability(self, sender: int, receiver: int) -> float:
        return self.probability


def _loss_models():
    topology = grid_topology(4, 0.5)
    return [
        GlobalLoss(0.0),
        GlobalLoss(0.37),
        GlobalLoss(1.0),
        PerLinkLoss(0.25, overrides={(0, 1): 0.0, (0, 2): 1.0, (0, 5): 0.6}),
        DistanceLoss(topology, floor=0.05, ceiling=0.95),
        _ScalarOnlyLoss(0.4),
    ]


class TestLossVectorEquivalence:
    @pytest.mark.parametrize("model", _loss_models(), ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_matches_scalar_draw_for_draw(self, model, seed):
        receivers = [1, 2, 3, 5, 6, 7, 9, 10]
        scalar_rng = np.random.default_rng(seed)
        vector_rng = np.random.default_rng(seed)
        scalar = [scalar_delivered(model, 0, r, scalar_rng) for r in receivers]
        vector = model.loss_vector(0, receivers, vector_rng)
        assert vector.dtype == bool
        assert list(vector) == scalar
        # identical stream consumption: later draws agree too
        assert scalar_rng.bit_generator.state == vector_rng.bit_generator.state

    def test_property_random_probabilities(self):
        """loss_vector == [scalar_delivered(...)] over random per-link tables."""
        meta_rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(meta_rng.integers(1, 20))
            receivers = list(range(1, n + 1))
            probs = meta_rng.random(n)
            # sprinkle degenerate links, which consume no draws
            probs[meta_rng.random(n) < 0.2] = 0.0
            probs[meta_rng.random(n) < 0.2] = 1.0
            model = PerLinkLoss(
                0.5, overrides={(0, r): float(p) for r, p in zip(receivers, probs)}
            )
            seed = int(meta_rng.integers(0, 2**32))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            scalar = [scalar_delivered(model, 0, r, a) for r in receivers]
            assert list(model.loss_vector(0, receivers, b)) == scalar
            assert a.bit_generator.state == b.bit_generator.state

    def test_empty_receiver_list(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert list(GlobalLoss(0.5).loss_vector(0, [], rng)) == []
        assert rng.bit_generator.state == state


def _lossy_radio(seed: int, battery: float) -> Radio:
    """A 3x3 grid radio with 40% loss and finite batteries."""
    radio = Radio(Simulator(seed=seed), grid_topology(3, 0.5), loss_model=GlobalLoss(0.4))
    radio.populate(battery_capacity=battery)
    return radio


class TestDeadReceiverAccounting:
    def test_dead_receivers_counted_separately(self):
        topology = grid_topology(2, 1.0)  # everyone hears everyone
        simulator = Simulator(seed=1)
        radio = Radio(simulator, topology)
        radio.populate(battery_capacity=10.0)
        radio.node(3).battery.draw(10.0)
        assert not radio.node(3).alive
        received = []
        observe_deliveries(radio, lambda message, rid: received.append(rid))
        radio.broadcast(Invitation(sender=0, value=1.0, epoch=0))
        simulator.run_until(1.0)
        assert received.count(1) == 1
        assert radio.stats.dropped_dead["Invitation"] == 1
        assert radio.stats.dropped["Invitation"] == 0
        assert radio.stats.delivered[(1, "Invitation")] == 1
        assert (3, "Invitation") not in radio.stats.delivered

    def test_dead_receiver_changes_no_other_outcome(self):
        """Killing a node leaves every other loss outcome and stream alone."""
        alive, killed = _lossy_radio(9, 10.0), _lossy_radio(9, 10.0)
        victim = 4  # the grid's center hears, and is heard by, everyone
        killed.node(victim).battery.draw(10.0)
        for radio in (alive, killed):
            for _ in range(5):
                for sender in radio.topology.node_ids:
                    if sender != victim:
                        radio.broadcast(
                            Invitation(sender=sender, value=1.0, epoch=0)
                        )
            radio.simulator.run_until(1.0)
        reached_victim = alive.stats.delivered[(victim, "Invitation")]
        assert reached_victim > 0, "the victim must survive some loss draws"
        assert killed.stats.delivered == {
            key: count
            for key, count in alive.stats.delivered.items()
            if key[0] != victim
        }
        # Loss is sampled over the full neighborhood either way; the
        # victim's survivors become dead drops at delivery.
        assert killed.stats.dropped == alive.stats.dropped
        assert killed.stats.dropped_dead["Invitation"] == reached_victim
        assert alive.stats.dropped_dead["Invitation"] == 0
        assert set(killed._entity_rngs) == set(alive._entity_rngs)
        for sender, rng in alive._entity_rngs.items():
            assert (
                killed._entity_rngs[sender].bit_generator.state
                == rng.bit_generator.state
            )


def test_fanout_counts_in_range_receivers_dead_included():
    """``net.fanout`` observes what the sender knows: range, not liveness."""
    radio = _lossy_radio(3, 10.0)
    assert tuple(radio.topology.out_neighbors(0)) == (1, 3, 4)
    radio.node(1).battery.draw(10.0)
    radio.node(3).battery.draw(10.0)
    radio.broadcast(Invitation(sender=0, value=1.0, epoch=0))
    radio.simulator.run_until(1.0)
    cell = radio.simulator.metrics.histogram("net.fanout", FANOUT_BUCKETS).cell()
    assert (cell.count, cell.sum) == (1, 3.0)  # two of the three are dead
