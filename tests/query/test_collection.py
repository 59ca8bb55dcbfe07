"""The central cost model against the message-driven TAG oracle.

``tests/query/tag_oracle.py`` assembles each answer from the messages
that arrive.  On a lossless radio it must give the central answer, and
the same transmit energy wherever both count messages alike; under loss
it degrades the way a TAG round does.
"""

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
from tests.query.tag_oracle import collect


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
        messaged = collect(executor, query, sink=0)
        assert messaged.delivered_reports == central.reports

    @pytest.mark.parametrize(
        "aggregate", [Aggregate.SUM, Aggregate.AVG, Aggregate.MIN,
                      Aggregate.MAX, Aggregate.COUNT]
    )
    def test_aggregates_match_central(self, aggregate):
        runtime = line_runtime()
        executor = QueryExecutor(runtime)
        query = Query(region=Everywhere(), aggregate=aggregate)
        central = executor.execute(query, sink=0, charge_energy=False)
        messaged = collect(executor, query, sink=0)
        assert messaged.aggregate_value == pytest.approx(central.aggregate_value)

    def test_snapshot_mode_matches_central(self):
        runtime = line_runtime(reach=2.0)
        runtime.run_election()
        executor = QueryExecutor(runtime)
        query = Query(region=Everywhere(), use_snapshot=True)
        central = executor.execute(query, sink=0, charge_energy=False)
        messaged = collect(executor, query, sink=0)
        assert set(messaged.delivered_reports) == set(central.reports)
        for origin, (value, estimated) in messaged.delivered_reports.items():
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
        outcome = collect(executor, query, sink=0)
        # nodes 1..5 all route through the blocked link
        assert set(outcome.delivered_reports) == {0}

    def test_heavy_loss_loses_data_but_not_correctness(self):
        runtime = line_runtime(reach=2.0)
        runtime.radio.loss_model = GlobalLoss(0.5)
        executor = QueryExecutor(runtime)
        query = Query(region=Everywhere(), aggregate=Aggregate.COUNT)
        outcome = collect(executor, query, sink=0)
        assert outcome.aggregate_value is not None
        assert 1.0 <= outcome.aggregate_value <= 6.0

    def test_messaged_charges_energy(self):
        runtime = line_runtime()
        executor = QueryExecutor(runtime)
        before = runtime.ledger.total("transmit")
        collect(executor, Query(region=Everywhere()), sink=0)
        assert runtime.ledger.total("transmit") > before


def transmit_energy(query: Query, messaged: bool) -> float:
    """One lossless round at sink 0 of a fresh line (elected for a
    snapshot query): the transmit energy it costs."""
    runtime = line_runtime()
    if query.use_snapshot:
        runtime.run_election()
    executor = QueryExecutor(runtime)
    before = runtime.ledger.total("transmit")
    if messaged:
        collect(executor, query, sink=0)
    else:
        executor.execute(query, sink=0)
    return runtime.ledger.total("transmit") - before


class TestCostModel:
    @pytest.mark.parametrize(
        "aggregate,use_snapshot",
        [(None, False), (Aggregate.SUM, False), (Aggregate.SUM, True)],
        ids=["regular-drill-through", "regular-aggregate", "snapshot-aggregate"],
    )
    def test_central_transmit_energy_equals_the_oracle(self, aggregate, use_snapshot):
        query = Query(region=Everywhere(), aggregate=aggregate, use_snapshot=use_snapshot)
        central = transmit_energy(query, messaged=False)
        assert central > 0
        assert central == transmit_energy(query, messaged=True)

    def test_every_round_is_charged(self):
        """A query sampled over three rounds costs three rounds, in the
        central model and in the oracle alike."""
        once = Query(region=Everywhere())
        thrice = Query(region=Everywhere(), sample_interval=1.0, duration=3.0)
        assert thrice.rounds == 3
        central = transmit_energy(thrice, messaged=False)
        assert central == 3 * transmit_energy(once, messaged=False)
        assert central == transmit_energy(thrice, messaged=True)

    def test_a_tighter_threshold_is_refused_as_by_execute(self):
        runtime = line_runtime(reach=2.0)
        runtime.run_election()
        query = Query(region=Everywhere(), use_snapshot=True, snapshot_threshold=1.0)
        with pytest.raises(ValueError, match="tighter"):
            QueryExecutor(runtime).execute(query, sink=0)
        with pytest.raises(ValueError, match="tighter"):
            collect(QueryExecutor(runtime), query, sink=0)
