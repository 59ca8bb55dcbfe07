"""The snapshot cover: one table per network state, read twice.

``QueryExecutor.cover`` is memoized on the runtime's state key, and
both the planner's census and the snapshot walk read it.  One planner
and one executor are reused here across every way the cover changes:
a device failed and restored by hand, a charged depletion, a
resignation caused by another executor, a maintenance event, a
mobility step and a re-election.  After each, their census and
snapshot bundles equal those of a freshly built planner and executor
and of the full-scan executor, and ``cache.estimate`` books the same
hits and misses.

``estimate`` on a fleet-bound cache, which reads the fleet's fitted
coefficients directly, is compared bit for bit with the base class's
read through the line's model and with the scalar engine, over
neighbors that were never modelled and a fit whose ``x`` never varied.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.core.status import NodeMode
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.models.cache_manager import ModelAwareCache
from repro.models.policy import CachePolicy
from repro.models.soa import ModelAwareCacheFleet
from repro.network.mobility import GaussianDrift, apply_mobility
from repro.network.topology import uniform_random_topology
from repro.query.aggregation_tree import AggregationTree
from repro.query.ast import Aggregate, Query
from repro.query.executor import QueryExecutor
from repro.query.planner import QueryPlanner
from repro.query.spatial import Circle, Everywhere, Rect
from tests.models.conftest import bound_lanes
from tests.query.test_linear_paths import FullScanExecutor

CAPACITY = 1e6

QUERIES = [
    Query(region=Everywhere(), aggregate=Aggregate.AVG, use_snapshot=True),
    Query(region=Rect(0.0, 0.0, 0.5, 0.6), aggregate=Aggregate.AVG, use_snapshot=True),
    Query(region=Rect(0.4, 0.2, 0.9, 0.9), use_snapshot=True),
    Query(region=Circle(0.3, 0.7, 0.3), use_snapshot=True),
]


def elected_runtime() -> SnapshotRuntime:
    rng = np.random.default_rng(5)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=40, n_classes=3, length=200), rng
    )
    topology = uniform_random_topology(40, 0.3, rng)
    config = ProtocolConfig(threshold=1.0, heartbeat_period=1.0, energy_resign_fraction=0.5)
    runtime = SnapshotRuntime(topology, dataset, config, seed=5, battery_capacity=CAPACITY)
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


def star(runtime) -> AggregationTree:
    """Every node, dead ones included, one hop from the smallest alive id."""
    sink = min(runtime.alive_ids())
    return AggregationTree(
        sink=sink,
        parents={node: sink for node in runtime.nodes},
        depths={node: int(node != sink) for node in runtime.nodes},
    )


def ordered(bundles) -> list:
    """Bundles with their insertion order, which the reports inherit."""
    return [(owner, list(bundle.items())) for owner, bundle in bundles.items()]


def booked(runtime, walk) -> tuple:
    """Run ``walk`` and return its bundles and the estimate hits and misses
    it booked."""
    counter = runtime.metrics.counter("cache.estimate", labels=("outcome",))
    before = counter.value("hit"), counter.value("miss")
    bundles = walk()
    return ordered(bundles), counter.value("hit") - before[0], counter.value("miss") - before[1]


def estimate_outcomes(runtime, query, tree) -> tuple[int, int]:
    """Hits and misses the snapshot walk should book, by a scan."""
    hits = misses = 0
    for node_id, node in runtime.nodes.items():
        if not node.alive or node.mode is not NodeMode.ACTIVE or node_id not in tree.members:
            continue
        for member_id, info in node.represented.items():
            if info.location is not None and query.region.contains(*info.location):
                if node.estimate_for(member_id) is None:
                    misses += 1
                else:
                    hits += 1
    return hits, misses


def assert_matches_fresh(runtime, planner) -> None:
    executor = planner.executor
    fresh = QueryPlanner(runtime)
    scan = FullScanExecutor(runtime)
    tree = star(runtime)
    for query in QUERIES:
        census = (
            len(planner.regular_responders(query)),
            len(planner.snapshot_responders(query)),
            len(runtime.alive_ids()),
        )
        assert planner._census(query) == census, query
        assert fresh._census(query) == census, query
        expected = ordered(scan._snapshot_bundles(query, tree))
        outcomes = estimate_outcomes(runtime, query, tree)
        reused = booked(runtime, lambda: executor._snapshot_bundles(query, tree))
        built = booked(runtime, lambda: fresh.executor._snapshot_bundles(query, tree))
        assert reused == built == (expected, *outcomes), query


def representative(runtime, exclude=()) -> int:
    return max(
        node_id for node_id in runtime.alive_ids()
        if runtime.nodes[node_id].mode is NodeMode.ACTIVE
        and runtime.nodes[node_id].represented
        and node_id not in exclude
    )


def test_a_reused_planner_and_executor_follow_every_change():
    runtime = elected_runtime()
    planner = QueryPlanner(runtime)
    executor = planner.executor
    everywhere = QUERIES[0]
    assert_matches_fresh(runtime, planner)
    cover = executor.cover()
    assert executor.cover() is cover  # one table per state
    owners = cover[0].tolist()
    assert owners == sorted(owners) and len(set(owners)) < len(owners)  # members have rows

    def step(change) -> None:
        key = runtime.state_key()
        change()
        assert runtime.state_key() > key
        assert_matches_fresh(runtime, planner)

    sink = min(runtime.alive_ids())
    victim = representative(runtime, exclude={sink})
    step(lambda: runtime.radio.node(victim).fail())
    assert not runtime.radio.is_alive(victim)
    step(lambda: runtime.radio.node(victim).restore())
    assert runtime.radio.is_alive(victim)

    # A charged execution empties a responder's battery.
    drained = representative(runtime, exclude={sink})
    battery = runtime.radio.node(drained).battery
    battery.draw(battery.charge - runtime.radio.cost_model.transmit)
    step(lambda: executor.execute(everywhere, sink=sink, charge_energy=True))
    assert not runtime.radio.is_alive(drained)

    # Another executor's charged execution makes a responder resign.
    resigner = representative(runtime, exclude={sink})
    battery = runtime.radio.node(resigner).battery
    battery.draw(battery.charge - (CAPACITY / 2 + runtime.radio.cost_model.transmit / 2))
    step(lambda: QueryExecutor(runtime).execute(everywhere, sink=sink, charge_energy=True))
    assert not runtime.nodes[resigner].represented

    runtime.start_maintenance()
    step(lambda: runtime.advance_to(runtime.now + 1.0))

    apply_mobility(runtime, GaussianDrift(sigma_per_unit_time=0.05), period=1.0)
    topology = runtime.topology
    step(lambda: runtime.advance_to(runtime.now + 1.5))
    assert runtime.topology is not topology

    epoch = runtime.current_epoch
    step(runtime.run_election)
    assert runtime.current_epoch > epoch


def fleet_and_scalar(cache_bytes: int = 512):
    fleet = ModelAwareCacheFleet(1, cache_bytes, max_lines=8, ring_cap=8)
    (bound,) = bound_lanes(fleet)
    return bound, ModelAwareCache(cache_bytes)


def bits(estimates) -> list:
    return [None if value is None else float(value).hex() for value in estimates]


@pytest.mark.parametrize("cache_bytes", [200, 512, 2048])
def test_estimate_on_the_fleet_equals_the_line_model_and_the_scalar_engine(cache_bytes):
    bound, scalar = fleet_and_scalar(cache_bytes)
    rng = np.random.default_rng(cache_bytes)
    for _ in range(80):
        x = float(rng.normal(20.0, 3.0))
        for neighbor, slope in ((1, 1.5), (3, -0.25), (5, 0.0), (6, 2.0)):
            # Neighbor 3 is only ever heard at one own reading: a fit on
            # constant x, slope 0 and the mean as intercept.
            own = 7.0 if neighbor == 3 else x
            y = slope * own + float(rng.normal(0.0, 0.5))
            assert bound.observe(neighbor, own, y) == scalar.observe(neighbor, own, y)
    ids = [0, 1, 2, 3, 4, 5, 6, 9]  # 0, 2, 4 and 9 were never modelled
    for own_value in (-1.5, 0.0, 19.75, 1e6):
        fast = [bound.estimate(j, own_value) for j in ids]
        assert bits(fast) == bits(CachePolicy.estimate(bound, j, own_value) for j in ids)
        assert bits(fast) == bits(scalar.estimate(j, own_value) for j in ids)
        assert [fast[ids.index(j)] for j in (0, 2, 4, 9)] == [None] * 4
    assert all(bound.line(j) is not None for j in (1, 3, 5, 6))
    degenerate = {bound.estimate(3, x) for x in (-1.5, 0.0, 1e6)}
    assert len(degenerate) == 1  # slope 0: the estimate ignores x
