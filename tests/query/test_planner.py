"""Tests for the energy-based query planner."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from repro.core.config import ProtocolConfig
from repro.core.multi_resolution import MultiResolutionSnapshot
from repro.core.runtime import SnapshotRuntime
from repro.data.series import Dataset
from repro.network.topology import Topology
from repro.query.ast import Query
from repro.query.planner import QueryPlanner
from repro.query.spatial import Everywhere, Rect
from tests.query.responder_oracle import regular_responders


def planned_runtime(n: int = 10):
    """Strongly correlated nodes in a row; snapshot collapses to few reps."""
    base = np.linspace(0.0, 40.0, 400)
    values = np.stack([base + 0.2 * i for i in range(n)])
    dataset = Dataset(values)
    topology = Topology([((i + 0.5) / n, 0.5) for i in range(n)], ranges=2.0)
    runtime = SnapshotRuntime(
        topology, dataset, ProtocolConfig(threshold=5.0), seed=2
    )
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


class TestCostEstimates:
    def test_regular_counts_matching_nodes(self):
        runtime = planned_runtime()
        planner = QueryPlanner(runtime)
        everywhere = Query(region=Everywhere())
        west = Query(region=Rect(0.0, 0.0, 0.5, 1.0))
        assert (
            planner.plan(everywhere).estimated_regular_cost
            > planner.plan(west).estimated_regular_cost
        )

    def test_snapshot_estimate_below_regular_for_broad_queries(self):
        runtime = planned_runtime()
        planner = QueryPlanner(runtime)
        query = Query(region=Everywhere())
        plan = planner.plan(query)
        assert plan.estimated_snapshot_cost < plan.estimated_regular_cost

    def test_aggregates_cost_less_than_drill_through(self):
        runtime = planned_runtime()
        planner = QueryPlanner(runtime)
        from repro.query.ast import Aggregate

        drill = Query(region=Everywhere())
        agg = Query(region=Everywhere(), aggregate=Aggregate.SUM)
        assert (
            planner.plan(agg).estimated_regular_cost
            <= planner.plan(drill).estimated_regular_cost
        )

    def test_mean_hops_empty_topology_fails_cleanly(self):
        """No nodes means no ranges: a ValueError, not min() blowing up."""

        class EmptyTopology:
            node_ids: list[int] = []

            def __len__(self) -> int:
                return 0

        planner = QueryPlanner(
            SimpleNamespace(topology=EmptyTopology()), executor=SimpleNamespace()
        )
        with pytest.raises(ValueError, match="empty topology"):
            planner._mean_hops()

    def test_estimate_cost_fields(self):
        runtime = planned_runtime()
        planner = QueryPlanner(runtime)
        from repro.query.ast import Aggregate

        west = Query(region=Rect(0.0, 0.0, 0.5, 1.0), aggregate=Aggregate.AVG)
        estimate = planner.estimate_cost(west, use_snapshot=False)
        assert not estimate.use_snapshot
        assert estimate.responders == len(regular_responders(planner.runtime, west))
        assert 0.0 < estimate.selectivity < 1.0
        assert estimate.nodes_touched <= len(runtime.alive_ids())
        assert estimate.bytes_on_network > 0
        assert estimate.total_transmissions == estimate.transmissions * estimate.rounds
        # aggregates share one path; drill-through forwards per responder
        drill = Query(region=Rect(0.0, 0.0, 0.5, 1.0))
        assert (
            planner.estimate_cost(drill, use_snapshot=False).bytes_on_network
            > estimate.bytes_on_network
        )

    def test_snapshot_estimate_counts_fewer_responders(self):
        runtime = planned_runtime()
        planner = QueryPlanner(runtime)
        query = Query(region=Everywhere())
        regular = planner.estimate_cost(query, use_snapshot=False)
        snapshot = planner.estimate_cost(query, use_snapshot=True)
        assert snapshot.responders < regular.responders
        assert snapshot.bytes_on_network < regular.bytes_on_network


class TestPlanning:
    def test_broad_query_upgraded_to_snapshot(self):
        runtime = planned_runtime()
        planner = QueryPlanner(runtime)
        plan, result = planner.execute(Query(region=Everywhere()), sink=0)
        assert plan.use_snapshot
        assert result.query.use_snapshot
        assert "beats" in plan.reason

    def test_tight_threshold_demoted_to_regular(self):
        runtime = planned_runtime()  # snapshot elected at T=5
        planner = QueryPlanner(runtime)
        query = Query(
            region=Everywhere(), use_snapshot=True, snapshot_threshold=0.001
        )
        plan, result = planner.execute(query, sink=0)
        assert plan.needs_election
        assert not plan.use_snapshot
        assert math.isinf(plan.estimated_snapshot_cost)
        assert not result.query.use_snapshot  # executed regularly, legally

    def test_coarse_threshold_served_by_snapshot(self):
        runtime = planned_runtime()
        planner = QueryPlanner(runtime)
        query = Query(
            region=Everywhere(), use_snapshot=True, snapshot_threshold=100.0
        )
        plan, __ = planner.execute(query, sink=0)
        assert not plan.needs_election

    def test_multi_resolution_routing(self):
        runtime = planned_runtime()
        runtime.advance_to(runtime.now + 1)
        multi = MultiResolutionSnapshot(runtime, [1.0, 50.0])
        multi.build()
        planner = QueryPlanner(runtime, multi=multi)
        fine = Query(region=Everywhere(), use_snapshot=True, snapshot_threshold=0.1)
        assert planner.plan(fine).needs_election
        coarse = Query(region=Everywhere(), use_snapshot=True, snapshot_threshold=75.0)
        assert not planner.plan(coarse).needs_election

    def test_multi_resolution_tighter_view_executes_without_crash(self):
        """Regression: a view tighter than the runtime threshold used to
        crash ``execute`` — the planned query kept ``snapshot_threshold``
        and tripped the executor's single-snapshot reuse check."""
        runtime = planned_runtime()  # runtime elected at T=5.0
        runtime.advance_to(runtime.now + 1)
        multi = MultiResolutionSnapshot(runtime, [1.0, 50.0])
        multi.build()
        planner = QueryPlanner(runtime, multi=multi)
        # T=2.0 resolves to the 1.0 view, which is tighter than 5.0
        query = Query(region=Everywhere(), use_snapshot=True, snapshot_threshold=2.0)
        plan = planner.plan(query)
        assert not plan.needs_election
        plan, result = planner.execute(query, sink=0)  # must not raise
        assert result.query.snapshot_threshold is None
        assert result.query.use_snapshot == plan.use_snapshot

    def test_rewrite_keeps_threshold_without_multi(self):
        runtime = planned_runtime()
        planner = QueryPlanner(runtime)
        query = Query(region=Everywhere(), use_snapshot=True, snapshot_threshold=100.0)
        plan = planner.plan(query)
        rewritten = planner.rewrite(query, plan)
        if plan.use_snapshot:
            # legal against the single snapshot: the executor re-checks it
            assert rewritten.snapshot_threshold == 100.0
        else:
            assert rewritten.snapshot_threshold is None

    def test_plan_execution_matches_estimates_direction(self):
        """The mode the planner picks really is the cheaper one."""
        runtime = planned_runtime()
        planner = QueryPlanner(runtime)
        query = Query(region=Everywhere())
        plan = planner.plan(query)
        from dataclasses import replace

        regular = planner.executor.execute(
            replace(query, use_snapshot=False), sink=0, charge_energy=False
        )
        snapshot = planner.executor.execute(
            replace(query, use_snapshot=True), sink=0, charge_energy=False
        )
        actual_cheaper_is_snapshot = (
            snapshot.n_participants < regular.n_participants
        )
        assert plan.use_snapshot == actual_cheaper_is_snapshot
