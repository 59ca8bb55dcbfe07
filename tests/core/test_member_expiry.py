"""Tests for timestamp-based stale-claim expiry (§3 self-correction)."""

from __future__ import annotations

import numpy as np
from repro.core.config import ProtocolConfig
from repro.core.protocol import MemberInfo
from repro.core.runtime import SnapshotRuntime
from repro.core.status import NodeMode
from repro.data.series import Dataset
from repro.network.mobility import RandomWaypoint, apply_mobility
from repro.network.topology import Topology


#: Finite, but far more than any test here spends: only the draw that
#: empties a battery on purpose kills its node.
CAPACITY = 1e6


def expiring_runtime(expiry_periods: float = 3.0) -> SnapshotRuntime:
    base = np.linspace(0.0, 30.0, 800)
    values = np.stack([base + 0.4 * i for i in range(6)])
    dataset = Dataset(values)
    topology = Topology([(0.1 * i, 0.5) for i in range(6)], ranges=2.0)
    return SnapshotRuntime(
        topology, dataset,
        ProtocolConfig(
            threshold=5.0,
            heartbeat_period=10.0,
            member_expiry_periods=expiry_periods,
        ),
        seed=12,
        battery_capacity=CAPACITY,
    )


class TestExpiryMechanics:
    def test_member_info_last_heard_defaults_to_acceptance(self):
        info = MemberInfo(location=(0.0, 0.0), accepted_at=42.0)
        assert info.last_heard == 42.0

    def test_heartbeats_keep_claims_alive(self):
        runtime = expiring_runtime()
        runtime.train(duration=10)
        view = runtime.run_election()
        runtime.start_maintenance()
        rep = runtime.nodes[view.representatives[0]]
        members_before = set(rep.represented)
        runtime.advance_to(runtime.now + 100)  # ten periods
        assert set(rep.represented) == members_before

    def test_silent_member_expires(self):
        runtime = expiring_runtime()
        runtime.train(duration=10)
        view = runtime.run_election()
        runtime.start_maintenance()
        rep = runtime.nodes[view.representatives[0]]
        victim = sorted(rep.represented)[0]
        # silence the member: it dies, so its heartbeats stop
        battery = runtime.radio.node(victim).battery
        battery.draw(battery.charge)  # emptied by the draw that marks it dead
        runtime.advance_to(runtime.now + 60)  # > 3 periods of silence
        assert victim not in rep.represented
        assert runtime.simulator.trace.count("maintenance.member_expired") >= 1

    def test_expiry_disabled_by_default(self):
        runtime = expiring_runtime(expiry_periods=0.0)
        runtime.train(duration=10)
        view = runtime.run_election()
        runtime.start_maintenance()
        rep = runtime.nodes[view.representatives[0]]
        victim = sorted(rep.represented)[0]
        battery = runtime.radio.node(victim).battery
        battery.draw(battery.charge)  # emptied by the draw that marks it dead
        runtime.advance_to(runtime.now + 100)
        # the paper's Figure 10 behavior: the claim (and the model
        # estimate for the dead node) persists
        assert victim in rep.represented

    def test_expire_stale_members_direct(self):
        runtime = expiring_runtime()
        node = runtime.nodes[0]
        node.mode = NodeMode.ACTIVE
        node.represented[1] = MemberInfo(location=None, accepted_at=0.0)
        runtime.advance_to(50.0)
        expired = node.expire_stale_members(max_silence=40.0)
        assert expired == [1]
        assert not node.represented

    def test_passive_nodes_never_expire(self):
        runtime = expiring_runtime()
        node = runtime.nodes[0]
        node.mode = NodeMode.PASSIVE
        node.represented[1] = MemberInfo(location=None, accepted_at=0.0)
        runtime.advance_to(50.0)
        assert node.expire_stale_members(max_silence=1.0) == []


class TestExpiryUnderMobility:
    def test_mobile_network_sheds_stale_claims(self):
        """With expiry enabled, a drifting network keeps its spurious
        claim count bounded instead of accumulating them forever."""
        base = np.linspace(0.0, 30.0, 2500)
        values = np.stack([base + 0.4 * i for i in range(12)])
        dataset = Dataset(values)
        topology = Topology(
            [(0.2 + 0.05 * i, 0.5) for i in range(12)], ranges=0.2
        )
        runtime = SnapshotRuntime(
            topology, dataset,
            ProtocolConfig(
                threshold=5.0, heartbeat_period=10.0, member_expiry_periods=3.0
            ),
            seed=13,
        )
        runtime.train(duration=10)
        runtime.run_election()
        runtime.start_maintenance()
        apply_mobility(runtime, RandomWaypoint(speed=0.01), period=5.0)
        runtime.advance_to(runtime.now + 600)
        audit = runtime.snapshot().audit()
        assert len(audit.stale_claims) <= 4
