"""Focused unit tests of ProtocolNode mechanics.

The integration tests exercise whole elections; these pin down the
individual mechanisms: maintenance offer batching, heartbeat-reply
semantics, resign cool-downs, the energy volunteer guard, and the
selection policies.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import MemberInfo, ProtocolNode
from repro.core.status import NodeMode
from repro.models.cache import BYTES_PER_PAIR
from repro.models.cache_manager import ModelAwareCache
from repro.models.estimator import NeighborModelStore
from repro.network.messages import (
    Accept,
    CandidateList,
    Heartbeat,
    HeartbeatReply,
    Invitation,
)
from repro.network.radio import Radio
from repro.network.topology import Topology
from repro.simulation.engine import Simulator


def make_cluster(n: int = 4, battery_capacity=None, **config_overrides):
    """``n`` protocol nodes, all in range, constant distinct values."""
    simulator = Simulator(seed=5)
    topology = Topology([(0.1 * i, 0.0) for i in range(n)], ranges=2.0)
    radio = Radio(simulator, topology)
    radio.populate(battery_capacity=battery_capacity)
    config = ProtocolConfig(threshold=10.0, **config_overrides)
    nodes = {}
    for node_id in range(n):
        store = NeighborModelStore(ModelAwareCache(BYTES_PER_PAIR * 64))
        nodes[node_id] = ProtocolNode(
            node_id, radio, store, config,
            value_fn=lambda nid=node_id: float(nid),
            location=topology.position(node_id),
        )
    return simulator, radio, nodes


def teach(nodes, learner: int, subject: int) -> None:
    """Give ``learner`` a usable model of ``subject`` (constant value)."""
    for x in (0.0, 1.0):
        nodes[learner].store.record(subject, x, float(subject))


class TestOfferBatching:
    def test_concurrent_invitations_one_candidate_list(self):
        simulator, radio, nodes = make_cluster(4)
        responder = nodes[0]
        responder.mode = NodeMode.ACTIVE
        responder.representative_id = 0
        teach(nodes, 0, 2)
        teach(nodes, 0, 3)
        before = radio.stats.sent_of_kind("CandidateList")
        responder._on_message(Invitation(sender=2, value=2.0, epoch=0), False)
        responder._on_message(Invitation(sender=3, value=3.0, epoch=0), False)
        simulator.run_until(simulator.now + 5.0)
        assert radio.stats.sent_of_kind("CandidateList") == before + 1

    def test_unmodeled_inviters_not_offered(self):
        simulator, radio, nodes = make_cluster(3)
        responder = nodes[0]
        responder.mode = NodeMode.ACTIVE
        responder.representative_id = 0
        # no model of node 2 at all
        responder._on_message(Invitation(sender=2, value=2.0, epoch=0), False)
        before = radio.stats.sent_of_kind("CandidateList")
        simulator.run_until(simulator.now + 5.0)
        assert radio.stats.sent_of_kind("CandidateList") == before

    def test_passive_node_responds_and_takes_role_when_accepted(self):
        simulator, radio, nodes = make_cluster(3)
        passive = nodes[0]
        passive.mode = NodeMode.PASSIVE
        passive.representative_id = 1
        nodes[1].mode = NodeMode.ACTIVE
        nodes[1].represented[0] = MemberInfo((0.0, 0.0), 0.0)
        teach(nodes, 0, 2)
        passive._on_message(Invitation(sender=2, value=2.0, epoch=0), False)
        simulator.run_until(simulator.now + 5.0)
        # node 0 offered; simulate node 2 accepting it
        passive._on_message(
            Accept(sender=2, representative=0, epoch=0, location=(0.2, 0.0),
                   timestamp=simulator.now),
            False,
        )
        simulator.run_until(simulator.now + 1.0)
        assert passive.mode is NodeMode.ACTIVE
        assert 2 in passive.represented
        # and it recalled its own representative
        assert 0 not in nodes[1].represented

    def test_energy_exhausted_node_never_volunteers(self):
        simulator, radio, nodes = make_cluster(
            3, battery_capacity=10.0, energy_resign_fraction=0.5
        )
        responder = nodes[0]
        responder.mode = NodeMode.ACTIVE
        responder.representative_id = 0
        teach(nodes, 0, 2)
        # drain below the 50% threshold (infinite batteries report 1.0)
        radio.node(0).battery.draw(8.0)
        before = radio.stats.sent_of_kind("CandidateList")
        responder._on_message(Invitation(sender=2, value=2.0, epoch=0), False)
        simulator.run_until(simulator.now + 5.0)
        assert radio.stats.sent_of_kind("CandidateList") == before


class TestHeartbeatSemantics:
    def test_actual_representative_replies_with_estimate(self):
        simulator, radio, nodes = make_cluster(2)
        rep, member = nodes[0], nodes[1]
        rep.mode = NodeMode.ACTIVE
        rep.represented[1] = MemberInfo((0.1, 0.0), 0.0)
        teach(nodes, 0, 1)
        replies = []
        member_device = radio.node(1)
        member_device.attach(
            lambda msg, overheard: replies.append(msg)
            if isinstance(msg, HeartbeatReply) else None
        )
        rep._on_message(Heartbeat(sender=1, target=0, value=1.0), False)
        simulator.run_until(simulator.now + 1.0)
        assert len(replies) == 1
        assert replies[0].estimate == pytest.approx(1.0)

    def test_stale_pointer_gets_no_estimate(self):
        """A node that is NOT the sender's representative answers with
        estimate=None so the sender re-elects (§3 self-correction)."""
        simulator, radio, nodes = make_cluster(2)
        not_rep = nodes[0]
        not_rep.mode = NodeMode.PASSIVE  # not a representative at all
        teach(nodes, 0, 1)
        replies = []
        radio.node(1).attach(
            lambda msg, overheard: replies.append(msg)
            if isinstance(msg, HeartbeatReply) else None
        )
        not_rep._on_message(Heartbeat(sender=1, target=0, value=1.0), False)
        simulator.run_until(simulator.now + 1.0)
        assert len(replies) == 1
        assert replies[0].estimate is None

    def test_heartbeat_fine_tunes_the_model(self):
        simulator, radio, nodes = make_cluster(2)
        rep = nodes[0]
        rep.mode = NodeMode.ACTIVE
        rep.represented[1] = MemberInfo((0.1, 0.0), 0.0)
        assert rep.store.model(1) is None
        rep._on_message(Heartbeat(sender=1, target=0, value=7.5), False)
        assert rep.store.model(1) is not None
        # the cache-maintenance CPU charge was applied
        assert radio.ledger.node_breakdown(0)["cpu"] == pytest.approx(0.1)


class TestResign:
    def test_resign_clears_members_and_notifies(self):
        simulator, radio, nodes = make_cluster(3)
        rep = nodes[0]
        rep.mode = NodeMode.ACTIVE
        rep.represented[1] = MemberInfo((0.1, 0.0), 0.0)
        rep.represented[2] = MemberInfo((0.2, 0.0), 0.0)
        rep.resign()
        assert not rep.represented
        assert radio.stats.sent_of_kind("Resign") == 1

    def test_resign_requires_members(self):
        simulator, radio, nodes = make_cluster(2)
        lone = nodes[0]
        lone.mode = NodeMode.ACTIVE
        lone.resign()
        assert radio.stats.sent_of_kind("Resign") == 0

    def test_members_reelect_on_resign(self):
        simulator, radio, nodes = make_cluster(3)
        rep, member = nodes[0], nodes[1]
        rep.mode = NodeMode.ACTIVE
        rep.represented[1] = MemberInfo((0.1, 0.0), 0.0)
        member.mode = NodeMode.PASSIVE
        member.representative_id = 0
        # node 2 can take over
        nodes[2].mode = NodeMode.ACTIVE
        nodes[2].representative_id = 2
        teach(nodes, 2, 1)
        rep.resign()
        simulator.run_until(simulator.now + 10.0)
        assert member.mode.settled
        assert member.representative_id != 0
        assert member.reelections == 1


class TestSelectionPolicies:
    def test_longest_list_prefers_consolidation(self):
        simulator, radio, nodes = make_cluster(3)
        chooser = nodes[0]
        chooser._offers = {1: 5, 2: 2}
        assert chooser._best_offer() == 1

    def test_tie_breaks_to_largest_id(self):
        simulator, radio, nodes = make_cluster(3)
        chooser = nodes[0]
        chooser._offers = {1: 3, 2: 3}
        assert chooser._best_offer() == 2

    def test_random_policy_draws_from_all_offers(self):
        simulator, radio, nodes = make_cluster(
            3, selection_policy="random"
        )
        chooser = nodes[0]
        chooser._offers = {1: 5, 2: 1}
        picks = {chooser._best_offer() for _ in range(50)}
        assert picks == {1, 2}

    def test_no_offers(self):
        simulator, radio, nodes = make_cluster(2)
        assert nodes[0]._best_offer() is None


class TestCoveredNodes:
    def test_active_covers_self_and_members(self):
        simulator, radio, nodes = make_cluster(3)
        rep = nodes[0]
        rep.mode = NodeMode.ACTIVE
        rep.represented[2] = MemberInfo((0.2, 0.0), 0.0)
        assert rep.covered_nodes() == {0, 2}

    def test_passive_covers_nothing(self):
        simulator, radio, nodes = make_cluster(2)
        nodes[0].mode = NodeMode.PASSIVE
        assert nodes[0].covered_nodes() == set()

    def test_estimate_for_self_is_truth(self):
        simulator, radio, nodes = make_cluster(2)
        assert nodes[1].estimate_for(1) == 1.0
