"""Failure injection: obstacles, asymmetric links, bursts of death.

The paper's motivating environment is hostile and volatile (§1); these
tests drive the protocol through the specific failure modes it is
designed around and check that the data-centric structure survives.
"""

from __future__ import annotations

import numpy as np
from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.core.status import NodeMode
from repro.data.series import Dataset
from repro.network.links import PerLinkLoss
from repro.network.topology import Topology


def correlated_runtime(n: int = 12, loss_model=None, battery=None, seed=3):
    """All-in-range nodes with strongly correlated ramps."""
    base = np.linspace(0.0, 30.0, 300)
    values = np.stack([base + 0.3 * i for i in range(n)])
    dataset = Dataset(values)
    topology = Topology([(0.08 * i, 0.0) for i in range(n)], ranges=2.0)
    kwargs = {}
    if loss_model is not None:
        kwargs["loss_model"] = loss_model
    return SnapshotRuntime(
        topology, dataset,
        ProtocolConfig(threshold=5.0, heartbeat_period=10.0),
        seed=seed, battery_capacity=battery, **kwargs,
    )


class TestObstacles:
    def test_blocked_pair_still_covered_via_other_representatives(self):
        """An obstacle between two specific nodes (the §3 example) must
        not leave either uncovered — they elect around it."""
        loss = PerLinkLoss(base=0.0)
        loss.set_link(0, 1, 1.0)
        loss.set_link(1, 0, 1.0)
        runtime = correlated_runtime(loss_model=loss)
        runtime.train(duration=10)
        view = runtime.run_election()
        covered = set(view.representatives)
        for rep in view.representatives:
            covered |= set(runtime.nodes[rep].represented)
        assert covered == set(range(12))

    def test_one_way_link_respected(self):
        """Node 1 can hear node 0 but not vice versa: node 0 can never
        learn it represents node 1 reliably — the protocol still
        terminates with everyone settled."""
        loss = PerLinkLoss(base=0.0)
        loss.set_link(1, 0, 1.0)  # 1's transmissions never reach 0
        runtime = correlated_runtime(loss_model=loss)
        runtime.train(duration=10)
        runtime.run_election()
        for node in runtime.nodes.values():
            assert node.mode.settled


class TestMassDeath:
    def test_simultaneous_representative_deaths_heal(self):
        runtime = correlated_runtime(battery=300.0)
        runtime.train(duration=10)
        view = runtime.run_election()
        runtime.start_maintenance()
        for rep in view.representatives:
            runtime.radio.node(rep).battery.draw(1e9)
        # several maintenance rounds to re-elect / self-activate
        runtime.advance_to(runtime.now + 60)
        survivors = [n for n in runtime.nodes.values() if n.alive]
        assert survivors
        for node in survivors:
            assert node.mode.settled
            if node.mode is NodeMode.PASSIVE:
                rep = runtime.nodes[node.representative_id]
                assert rep.alive

    def test_network_of_one_survivor(self):
        runtime = correlated_runtime(battery=300.0)
        runtime.train(duration=10)
        runtime.run_election()
        runtime.start_maintenance()
        for node_id in range(1, 12):
            runtime.radio.node(node_id).battery.draw(1e9)
        runtime.advance_to(runtime.now + 40)
        lone = runtime.nodes[0]
        assert lone.alive
        view = runtime.snapshot()
        assert view.n_nodes == 1
        assert view.representatives == (0,)


class TestChurnStability:
    def test_long_maintenance_run_stays_consistent(self):
        """Hundreds of maintenance rounds with rotation enabled never
        produce a passive node pointing at a passive representative
        (for longer than a heartbeat period)."""
        base = np.linspace(0.0, 30.0, 2000)
        values = np.stack([base + 0.3 * i for i in range(12)])
        dataset = Dataset(values)
        topology = Topology([(0.08 * i, 0.0) for i in range(12)], ranges=2.0)
        runtime = SnapshotRuntime(
            topology, dataset,
            ProtocolConfig(
                threshold=5.0, heartbeat_period=10.0, rotation_probability=0.2
            ),
            seed=9,
        )
        runtime.train(duration=10)
        runtime.run_election()
        runtime.start_maintenance()
        for checkpoint in range(10):
            runtime.advance_to(runtime.now + 30)
            view = runtime.snapshot()
            # structure sanity at every checkpoint
            assert 1 <= view.size <= 12
            audit = view.audit()
            assert audit.n_spurious <= 2  # transient churn only

    def test_broken_pointers_self_correct_within_two_periods(self):
        runtime = correlated_runtime()
        runtime.train(duration=10)
        view = runtime.run_election()
        runtime.start_maintenance()
        # forcibly corrupt: make one representative forget a member
        rep_id = view.representatives[0]
        rep = runtime.nodes[rep_id]
        members = sorted(rep.represented)
        if members:
            victim = members[0]
            del rep.represented[victim]
            runtime.advance_to(runtime.now + 25)
            node = runtime.nodes[victim]
            assert node.mode.settled
            # healed: either re-claimed by someone or self-represented
            if node.mode is NodeMode.PASSIVE:
                assert victim in runtime.nodes[node.representative_id].represented
