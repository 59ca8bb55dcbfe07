"""Tests for message-driven TAG collection (`messaged=True` execution)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.series import Dataset
from repro.network.links import GlobalLoss, PerLinkLoss
from repro.network.topology import Topology
from repro.query.ast import Aggregate, Query
from repro.query.executor import QueryExecutor
from repro.query.spatial import Everywhere


def line_runtime(n: int = 6, loss_model=None, reach: float = 0.2):
    """A multi-hop line of nodes with simple ramp data."""
    base = np.linspace(0.0, 40.0, 400)
    values = np.stack([base + 1.0 * i for i in range(n)])
    dataset = Dataset(values)
    topology = Topology([(0.15 * i, 0.5) for i in range(n)], ranges=reach)
    kwargs = {"loss_model": loss_model} if loss_model is not None else {}
    runtime = SnapshotRuntime(
        topology, dataset, ProtocolConfig(threshold=3.0), seed=5, **kwargs
    )
    runtime.train(duration=10)
    return runtime


class TestLosslessEquivalence:
    def test_drill_through_matches_central(self):
        runtime = line_runtime()
        executor = QueryExecutor(runtime)
        query = Query(region=Everywhere())
        central = executor.execute(query, sink=0, charge_energy=False)
        messaged = executor.execute(query, sink=0, messaged=True)
        assert messaged.reports == central.reports
        assert messaged.coverage() == central.coverage()

    @pytest.mark.parametrize(
        "aggregate", [Aggregate.SUM, Aggregate.AVG, Aggregate.MIN,
                      Aggregate.MAX, Aggregate.COUNT]
    )
    def test_aggregates_match_central(self, aggregate):
        runtime = line_runtime()
        executor = QueryExecutor(runtime)
        query = Query(region=Everywhere(), aggregate=aggregate)
        central = executor.execute(query, sink=0, charge_energy=False)
        messaged = executor.execute(query, sink=0, messaged=True)
        assert messaged.aggregate_value == pytest.approx(central.aggregate_value)

    def test_snapshot_mode_matches_central(self):
        runtime = line_runtime(reach=2.0)
        runtime.run_election()
        executor = QueryExecutor(runtime)
        query = Query(region=Everywhere(), use_snapshot=True)
        central = executor.execute(query, sink=0, charge_energy=False)
        messaged = executor.execute(query, sink=0, messaged=True)
        assert set(messaged.reports) == set(central.reports)
        for origin, (value, estimated) in messaged.reports.items():
            assert central.reports[origin][0] == pytest.approx(value)
            assert central.reports[origin][1] == estimated


class TestLossyDegradation:
    def test_blocked_link_silences_the_subtree(self):
        """Losing the partial near the root drops the whole branch —
        TAG's characteristic failure mode."""
        loss = PerLinkLoss(base=0.0)
        loss.set_link(1, 0, 1.0)  # node 1 can never reach the sink
        runtime = line_runtime(loss_model=None)
        # swap in the lossy model *after* training and tree formation
        # would also drop the flood; block only now
        runtime.radio.loss_model = loss
        executor = QueryExecutor(runtime)
        query = Query(region=Everywhere())
        result = executor.execute(query, sink=0, messaged=True)
        # nodes 1..5 all route through the blocked link
        assert set(result.reports) == {0}
        assert result.coverage() < 1.0

    def test_heavy_loss_loses_data_but_not_correctness(self):
        runtime = line_runtime(reach=2.0)
        runtime.radio.loss_model = GlobalLoss(0.5)
        executor = QueryExecutor(runtime)
        query = Query(region=Everywhere(), aggregate=Aggregate.COUNT)
        result = executor.execute(query, sink=0, messaged=True)
        assert result.aggregate_value is not None
        assert 1.0 <= result.aggregate_value <= 6.0

    def test_messaged_charges_energy(self):
        runtime = line_runtime()
        executor = QueryExecutor(runtime)
        before = runtime.ledger.total("transmit")
        executor.execute(Query(region=Everywhere()), sink=0, messaged=True)
        assert runtime.ledger.total("transmit") > before
