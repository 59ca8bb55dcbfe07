"""Tests for regular vs snapshot query execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.core.status import NodeMode
from repro.data.series import Dataset
from repro.network.topology import Topology
from repro.query.ast import Aggregate, Comparison, Query, ValuePredicate
from repro.query.coverage import CoverageSeries
from repro.query.executor import QueryExecutor
from repro.query.spatial import Everywhere, Rect


def clustered_runtime(threshold: float = 5.0, battery: float | None = None):
    """Six all-in-range nodes with two value clusters at known locations.

    Nodes 0-2 sit in the west half, nodes 3-5 in the east half.
    Values: nodes 0-4 near-identical ramps; node 5 is a scaled/offset
    ramp that always stays above 100 (for value-predicate tests).
    """
    length = 200
    base = np.linspace(0.0, 20.0, length)
    values = np.stack(
        [base, base + 0.5, base + 1.0, base + 1.5, base + 2.0, base * 40.0 + 500.0]
    )
    dataset = Dataset(values)
    positions = [
        (0.1, 0.5), (0.2, 0.5), (0.3, 0.5),
        (0.7, 0.5), (0.8, 0.5), (0.9, 0.5),
    ]
    topology = Topology(positions, ranges=2.0)
    runtime = SnapshotRuntime(
        topology, dataset, ProtocolConfig(threshold=threshold),
        seed=3, battery_capacity=battery,
    )
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


WEST = Rect(0.0, 0.0, 0.5, 1.0)
EAST = Rect(0.5, 0.0, 1.0, 1.0)


class TestRegularExecution:
    def test_all_matching_nodes_respond(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        result = executor.execute(Query(region=WEST), charge_energy=False)
        assert result.responders == frozenset({0, 1, 2})
        assert set(result.reports) == {0, 1, 2}
        assert all(not estimated for _, estimated in result.reports.values())

    def test_true_values_reported(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        result = executor.execute(Query(region=WEST), charge_energy=False)
        for origin, (value, _) in result.reports.items():
            assert value == runtime.value_of(origin)

    def test_value_predicate_filters(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        predicate = ValuePredicate("value", Comparison.GT, 100.0)
        result = executor.execute(
            Query(region=Everywhere(), value_predicate=predicate),
            charge_energy=False,
        )
        assert result.responders == frozenset({5})

    def test_aggregate_sum(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        result = executor.execute(
            Query(aggregate=Aggregate.SUM, region=WEST), charge_energy=False
        )
        expected = sum(runtime.value_of(i) for i in (0, 1, 2))
        assert result.aggregate_value == pytest.approx(expected)

    def test_aggregate_count_empty_region(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        result = executor.execute(
            Query(aggregate=Aggregate.COUNT, region=Rect(0.4, 0.0, 0.45, 0.1)),
            charge_energy=False,
        )
        assert result.aggregate_value == 0.0
        assert result.coverage() == 1.0  # nothing to cover


class TestSnapshotExecution:
    def test_fewer_participants_than_regular(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        regular = executor.execute(Query(region=WEST), sink=3, charge_energy=False)
        snap = executor.execute(
            Query(region=WEST, use_snapshot=True), sink=3, charge_energy=False
        )
        assert snap.n_participants < regular.n_participants
        assert snap.n_participants >= 1

    def test_passive_nodes_never_respond(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        result = executor.execute(
            Query(region=Everywhere(), use_snapshot=True), charge_energy=False
        )
        passive = {
            nid for nid, node in runtime.nodes.items()
            if node.mode is NodeMode.PASSIVE
        }
        assert not (result.responders & passive)

    def test_members_answered_by_estimates(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        result = executor.execute(
            Query(region=Everywhere(), use_snapshot=True), charge_energy=False
        )
        # every node is answered for: its own report or its rep's estimate
        assert set(result.reports) == set(range(6))
        estimated = [o for o, (_, est) in result.reports.items() if est]
        assert estimated  # at least the represented ones

    def test_estimates_close_to_truth(self):
        runtime = clustered_runtime(threshold=5.0)
        executor = QueryExecutor(runtime)
        result = executor.execute(
            Query(region=Everywhere(), use_snapshot=True), charge_energy=False
        )
        for origin, (value, estimated) in result.reports.items():
            if estimated:
                truth = runtime.value_of(origin)
                assert (value - truth) ** 2 <= 5.0 * 4  # loose sanity factor

    def test_member_outside_region_not_reported(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        result = executor.execute(
            Query(region=EAST, use_snapshot=True), charge_energy=False
        )
        assert set(result.reports) <= {3, 4, 5}

    def test_threshold_reuse_rule_enforced(self):
        runtime = clustered_runtime(threshold=5.0)
        executor = QueryExecutor(runtime)
        fine = Query(use_snapshot=True, snapshot_threshold=10.0)
        executor.execute(fine, charge_energy=False)  # coarser: allowed
        tight = Query(use_snapshot=True, snapshot_threshold=1.0)
        with pytest.raises(ValueError, match="tighter"):
            executor.execute(tight, charge_energy=False)


class TestEnergyAndMessages:
    def test_charged_execution_sends_messages(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        before = runtime.stats.sent_of_kind("DataReport")
        result = executor.execute(Query(region=WEST), sink=5)
        sent = runtime.stats.sent_of_kind("DataReport") - before
        assert sent == len(result.responders - {5})

    def test_uncharged_execution_sends_nothing(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        before = runtime.stats.total_sent()
        executor.execute(Query(region=WEST), charge_energy=False)
        assert runtime.stats.total_sent() == before

    def test_rounds_multiply_cost(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        before = runtime.stats.sent_of_kind("DataReport")
        result = executor.execute(Query(region=WEST), sink=5, rounds=3)
        sent = runtime.stats.sent_of_kind("DataReport") - before
        assert sent == 3 * len(result.responders - {5})
        assert result.rounds == 3

    def test_dead_sink_rejected(self):
        runtime = clustered_runtime(battery=50.0)
        executor = QueryExecutor(runtime)
        runtime.radio.node(2).battery.draw(1e9)
        with pytest.raises(ValueError):
            executor.execute(Query(), sink=2, charge_energy=False)

    def test_invalid_rounds(self):
        runtime = clustered_runtime()
        with pytest.raises(ValueError):
            QueryExecutor(runtime).execute(Query(), rounds=0)


class TestCoverage:
    def test_full_coverage_when_everyone_alive(self):
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        result = executor.execute(Query(region=WEST), charge_energy=False)
        assert result.coverage() == 1.0

    def test_dead_node_lowers_regular_coverage(self):
        runtime = clustered_runtime(battery=100.0)
        executor = QueryExecutor(runtime)
        runtime.radio.node(1).battery.draw(1e9)
        result = executor.execute(Query(region=WEST), sink=0, charge_energy=False)
        assert result.coverage() == pytest.approx(2 / 3)

    def test_snapshot_covers_dead_member_via_estimate(self):
        runtime = clustered_runtime(battery=100.0)
        executor = QueryExecutor(runtime)
        # kill a PASSIVE node in the west; its representative still
        # answers for it from the model
        passive_west = next(
            nid for nid in (0, 1, 2)
            if runtime.nodes[nid].mode is NodeMode.PASSIVE
        )
        runtime.radio.node(passive_west).battery.draw(1e9)
        result = executor.execute(
            Query(region=WEST, use_snapshot=True), charge_energy=False
        )
        assert passive_west in result.reports
        assert result.coverage() == 1.0

    def test_coverage_series_accumulates(self):
        series = CoverageSeries()
        runtime = clustered_runtime()
        executor = QueryExecutor(runtime)
        for _ in range(3):
            series.record(executor.execute(Query(region=WEST), charge_energy=False))
        assert len(series) == 3
        assert series.mean == pytest.approx(1.0)
        assert series.area == pytest.approx(3.0)
