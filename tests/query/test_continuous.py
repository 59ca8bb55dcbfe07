"""Tests for continuous queries sampled over simulated time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.series import Dataset
from repro.network.topology import Topology
from repro.query.continuous import ContinuousQuery
from repro.query.executor import QueryExecutor
from repro.query.parser import parse_query


def runtime_with_snapshot(n: int = 6, battery: float | None = None):
    base = np.linspace(0.0, 40.0, 600)
    values = np.stack([base + 0.5 * i for i in range(n)])
    dataset = Dataset(values)
    topology = Topology([(0.15 * i, 0.5) for i in range(n)], ranges=2.0)
    runtime = SnapshotRuntime(
        topology, dataset,
        ProtocolConfig(threshold=5.0, heartbeat_period=20.0),
        seed=6, battery_capacity=battery,
    )
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


class TestLifecycle:
    def test_epochs_spread_over_time(self):
        runtime = runtime_with_snapshot()
        executor = QueryExecutor(runtime)
        query = parse_query(
            "SELECT loc, value FROM sensors SAMPLE INTERVAL 5s FOR 20s USE SNAPSHOT"
        )
        handle = ContinuousQuery(executor, query, sink=0).start()
        start = runtime.now
        runtime.advance_to(start + 30)
        assert handle.finished
        assert len(handle.records) == 4
        times = [record.time for record in handle.records]
        assert times == [start + 5, start + 10, start + 15, start + 20]

    def test_requires_acquisition_clauses(self):
        runtime = runtime_with_snapshot()
        executor = QueryExecutor(runtime)
        with pytest.raises(ValueError):
            ContinuousQuery(executor, parse_query("SELECT loc FROM sensors"))

    def test_double_start_rejected(self):
        runtime = runtime_with_snapshot()
        executor = QueryExecutor(runtime)
        query = parse_query("SELECT loc FROM sensors SAMPLE INTERVAL 5s FOR 10s")
        handle = ContinuousQuery(executor, query).start()
        with pytest.raises(RuntimeError):
            handle.start()

    def test_stop_cancels_remaining_epochs(self):
        runtime = runtime_with_snapshot()
        executor = QueryExecutor(runtime)
        query = parse_query("SELECT loc FROM sensors SAMPLE INTERVAL 5s FOR 100s")
        handle = ContinuousQuery(executor, query, sink=0).start()
        runtime.advance_to(runtime.now + 12)
        handle.stop()
        runtime.advance_to(runtime.now + 50)
        assert len(handle.records) == 2
        assert handle.finished


class TestSemantics:
    def test_aggregate_series_tracks_moving_data(self):
        runtime = runtime_with_snapshot()
        executor = QueryExecutor(runtime)
        query = parse_query(
            "SELECT AVG(value) FROM sensors SAMPLE INTERVAL 10s FOR 40s"
        )
        handle = ContinuousQuery(executor, query, sink=0).start()
        runtime.advance_to(runtime.now + 50)
        series = [result.aggregate_value for result in handle.results]
        assert len(series) == 4
        # the underlying ramps increase, so should the epoch averages
        assert all(a < b for a, b in zip(series, series[1:]))

    def test_callback_invoked_per_epoch(self):
        runtime = runtime_with_snapshot()
        executor = QueryExecutor(runtime)
        seen = []
        query = parse_query("SELECT loc FROM sensors SAMPLE INTERVAL 5s FOR 15s")
        ContinuousQuery(
            executor, query, sink=0, on_epoch=lambda record: seen.append(record.epoch)
        ).start()
        runtime.advance_to(runtime.now + 20)
        assert seen == [1, 2, 3]

    def test_mid_query_rep_death_heals_between_epochs(self):
        runtime = runtime_with_snapshot(battery=400.0)
        runtime.start_maintenance()
        executor = QueryExecutor(runtime)
        query = parse_query(
            "SELECT loc, value FROM sensors SAMPLE INTERVAL 25s FOR 150s USE SNAPSHOT"
        )
        handle = ContinuousQuery(executor, query, sink=0).start()
        runtime.advance_to(runtime.now + 30)
        # kill the current representative set (except the sink)
        view = runtime.snapshot()
        for rep in view.representatives:
            if rep != 0:
                runtime.radio.node(rep).battery.draw(1e9)
        runtime.advance_to(runtime.now + 140)
        assert handle.finished
        # later epochs recovered useful coverage after re-election
        final_coverage = handle.records[-1].coverage
        assert final_coverage >= 0.5

    def test_mean_statistics(self):
        runtime = runtime_with_snapshot()
        executor = QueryExecutor(runtime)
        query = parse_query(
            "SELECT loc, value FROM sensors SAMPLE INTERVAL 5s FOR 15s USE SNAPSHOT"
        )
        handle = ContinuousQuery(executor, query, sink=0).start()
        runtime.advance_to(runtime.now + 20)
        assert 0.0 < handle.mean_participants() <= 6.0
        assert handle.mean_coverage() == pytest.approx(1.0)


class TestDegradedNetworks:
    def test_pinned_sink_death_degrades_to_random_sink(self):
        """A dead pinned collection point downgrades to per-epoch random
        sinks instead of crashing the query out of sink validation."""
        runtime = runtime_with_snapshot(battery=500.0)
        executor = QueryExecutor(runtime)
        query = parse_query(
            "SELECT loc, value FROM sensors SAMPLE INTERVAL 5s FOR 25s USE SNAPSHOT"
        )
        handle = ContinuousQuery(executor, query, sink=3).start()
        runtime.advance_to(runtime.now + 7)  # one epoch with the pinned sink
        runtime.radio.node(3).battery.draw(1e9)  # kill the sink mid-query
        runtime.advance_to(runtime.now + 23)
        assert handle.finished
        assert len(handle.records) == 5
        # epochs after the death were still answered (substitute sinks)
        assert handle.records[-1].coverage > 0.0

    def test_whole_network_death_stops_query(self):
        runtime = runtime_with_snapshot(battery=200.0)
        executor = QueryExecutor(runtime)
        query = parse_query(
            "SELECT loc FROM sensors SAMPLE INTERVAL 5s FOR 500s USE SNAPSHOT"
        )
        handle = ContinuousQuery(executor, query).start()
        for node in runtime.radio.nodes.values():
            node.battery.draw(1e9)
        runtime.advance_to(runtime.now + 20)
        assert handle.finished
        assert handle.records == []

    def test_statistics_before_first_epoch(self):
        runtime = runtime_with_snapshot()
        executor = QueryExecutor(runtime)
        query = parse_query("SELECT loc FROM sensors SAMPLE INTERVAL 5s FOR 10s")
        handle = ContinuousQuery(executor, query)
        assert not handle.finished
        assert handle.total_epochs == 2
        assert handle.results == []
        assert handle.mean_coverage() == 0.0
        assert handle.mean_participants() == 0.0
        assert handle.runtime is runtime
