"""Unit tests for fault plans: validation, ordering, timing."""

from __future__ import annotations

import pytest

from repro.faults.plan import (
    BatteryDrain,
    FaultPlan,
    LinkLossBurst,
    NetworkPartition,
    NodeCrash,
)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            NodeCrash(time=-1.0, node_id=0)

    def test_non_positive_down_for_rejected(self):
        with pytest.raises(ValueError):
            NodeCrash(time=0.0, node_id=0, down_for=0.0)

    def test_drain_fraction_bounds(self):
        with pytest.raises(ValueError):
            BatteryDrain(time=0.0, node_id=0, fraction=0.0)
        with pytest.raises(ValueError):
            BatteryDrain(time=0.0, node_id=0, fraction=1.5)
        assert BatteryDrain(time=0.0, node_id=0, fraction=1.0).fraction == 1.0

    def test_burst_needs_positive_duration_and_loss(self):
        with pytest.raises(ValueError):
            LinkLossBurst(time=0.0, duration=0.0, loss=0.5)
        with pytest.raises(ValueError):
            LinkLossBurst(time=0.0, duration=1.0, loss=0.0)

    def test_partition_needs_non_empty_group(self):
        with pytest.raises(ValueError):
            NetworkPartition(time=0.0, duration=1.0, group=frozenset())

    def test_partition_group_normalized_to_frozenset(self):
        partition = NetworkPartition(time=0.0, duration=1.0, group={1, 2})
        assert isinstance(partition.group, frozenset)


class TestEventTiming:
    def test_permanent_crash_ends_at_crash_time(self):
        assert NodeCrash(time=5.0, node_id=1).end_time == 5.0

    def test_transient_crash_ends_at_revival(self):
        assert NodeCrash(time=5.0, node_id=1, down_for=3.0).end_time == 8.0

    def test_burst_and_partition_end_after_duration(self):
        assert LinkLossBurst(time=2.0, duration=4.0).end_time == 6.0
        partition = NetworkPartition(time=1.0, duration=2.0, group=frozenset({0}))
        assert partition.end_time == 3.0


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        late = NodeCrash(time=9.0, node_id=0)
        early = BatteryDrain(time=1.0, node_id=1)
        plan = FaultPlan((late, early))
        assert [event.time for event in plan] == [1.0, 9.0]

    def test_end_time_is_last_effect(self):
        plan = FaultPlan(
            (
                NodeCrash(time=1.0, node_id=0, down_for=20.0),
                LinkLossBurst(time=5.0, duration=2.0),
            )
        )
        assert plan.end_time == 21.0

    def test_empty_plan(self):
        plan = FaultPlan()
        assert len(plan) == 0
        assert plan.end_time == 0.0
        assert plan.crashes() == ()

    def test_crashes_filters_other_events(self):
        crash = NodeCrash(time=2.0, node_id=3)
        plan = FaultPlan((BatteryDrain(time=1.0, node_id=0), crash))
        assert plan.crashes() == (crash,)
