"""Tests for the snapshot view and the spurious-representative audit."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import MemberInfo, ProtocolNode
from repro.core.snapshot import SnapshotView
from repro.core.status import NodeMode
from repro.network.links import GlobalLoss
from repro.network.radio import Radio
from repro.network.topology import Topology
from repro.simulation.engine import Simulator
from tests.conftest import make_runtime


def make_nodes(n: int = 4, battery_capacity=None):
    simulator = Simulator(seed=0)
    topology = Topology([(0.1 * i, 0.0) for i in range(n)], ranges=2.0)
    radio = Radio(simulator, topology)
    radio.populate(battery_capacity=battery_capacity)
    config = ProtocolConfig()
    store = type("S", (), {"estimate": lambda self, *a, **k: None})()
    return {
        i: ProtocolNode(i, radio, store, config, lambda: 0.0, topology.position(i))
        for i in range(n)
    }


class TestCapture:
    def test_simple_assignment(self):
        nodes = make_nodes(3)
        nodes[0].mode = NodeMode.ACTIVE
        nodes[0].represented = {1: MemberInfo((0.1, 0.0), 5.0)}
        nodes[1].mode = NodeMode.PASSIVE
        nodes[1].representative_id = 0
        nodes[2].mode = NodeMode.ACTIVE
        view = SnapshotView.capture(nodes)
        assert view.representatives == (0, 2)
        assert view.size == 2
        assert view.assignment[1] == 0
        assert view.assignment[2] == 2
        assert view.members_of(0) == (0, 1)
        assert view.fraction() == pytest.approx(2 / 3)

    def test_undefined_counts_as_self_represented(self):
        nodes = make_nodes(2)
        # both left UNDEFINED (mid-re-election)
        view = SnapshotView.capture(nodes)
        assert view.representatives == (0, 1)
        assert view.assignment == {0: 0, 1: 1}

    def test_dead_nodes_excluded(self):
        nodes = make_nodes(3, battery_capacity=1.0)
        for node in nodes.values():
            node.mode = NodeMode.ACTIVE
        nodes[1].device.battery.draw(1.0)  # empty a finite battery through its draw
        view = SnapshotView.capture(nodes)
        assert 1 not in view.assignment
        assert view.n_nodes == 2


class TestAudit:
    def test_clean_network_has_no_spurious(self):
        nodes = make_nodes(2)
        nodes[0].mode = NodeMode.ACTIVE
        nodes[0].represented = {1: MemberInfo(None, 1.0)}
        nodes[1].mode = NodeMode.PASSIVE
        nodes[1].representative_id = 0
        audit = SnapshotView.capture(nodes).audit()
        assert audit.n_spurious == 0

    def test_stale_claim_detected(self):
        nodes = make_nodes(3)
        # node 0 believes it represents node 2; node 2 actually chose node 1
        nodes[0].mode = NodeMode.ACTIVE
        nodes[0].represented = {2: MemberInfo(None, 1.0)}
        nodes[1].mode = NodeMode.ACTIVE
        nodes[1].represented = {2: MemberInfo(None, 2.0)}
        nodes[2].mode = NodeMode.PASSIVE
        nodes[2].representative_id = 1
        view = SnapshotView.capture(nodes)
        audit = view.audit()
        assert audit.spurious_representatives == (0,)
        assert audit.stale_claims == ((0, 2),)
        assert view.assignment[2] == 1  # the freshest claim: 2's own pointer


class TestSpuriousUnderLoss:
    def test_loss_produces_bounded_spurious_representatives(self):
        """Under heavy loss spurious claims appear but stay a small
        fraction of the network (the Figure 13 observation)."""
        runtime = make_runtime(
            n_nodes=40, n_classes=1, loss_model=GlobalLoss(0.4), seed=17
        )
        runtime.train(duration=10)
        runtime.advance_to(100)
        view = runtime.run_election()
        audit = view.audit()
        assert audit.n_spurious <= view.n_nodes * 0.25
