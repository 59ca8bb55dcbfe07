"""The result cache's state key under a moving network.

A snapshot answer depends on more than the structure version: an
Accept, a Recall, a re-election's choice, a stale member's expiry or a
resignation all change the structure inside events without moving it,
and readings change as simulated time passes.  The front end keys its
cache on the runtime's state key: the structure version, the
simulator's event count and clock, and the runtime's count of liveness
writes and resignations, which may happen outside any event.  So:

* under churn (link loss, crashes, maintenance, the clock advancing
  between submits) every served answer, hit or miss, equals a fresh
  execution at the same point;
* a charged execution that empties a battery or makes a responder
  resign outside any event invalidates what it served;
* so do a device failed by hand between two submits and a
  resignation caused by an execution outside the front end;
* ``serving.trees`` counts the floods performed, not the trees asked
  for.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash
from repro.network.links import GlobalLoss
from repro.network.topology import uniform_random_topology
from repro.query.aggregation_tree import AggregationTree
from repro.query.ast import Aggregate, Query
from repro.query.executor import QueryExecutor
from repro.query.spatial import Everywhere, Rect
from repro.serving import QueryFrontEnd
from tests.conftest import make_runtime


def fresh_answer(runtime, result):
    """Re-execute ``result``'s query now over a tree of exactly the nodes
    that took part in it, charging nothing.

    Under link loss a new flood could reach other nodes; keeping the
    membership makes the two comparable, and a member that took no
    part contributed nothing to the answer.
    """
    members = set(result.participants) | {result.sink}
    tree = AggregationTree(
        sink=result.sink,
        parents={member: result.sink for member in members},
        depths={member: int(member != result.sink) for member in members},
    )
    return QueryExecutor(runtime).execute(
        result.query, sink=result.sink, tree=tree, charge_energy=False
    )


def same_answer(served, fresh) -> bool:
    result = served.result
    return (
        result.reports == fresh.reports
        and result.aggregate_value == fresh.aggregate_value
        and result.responders == fresh.responders
        and result.matching_all == fresh.matching_all
    )


def elected_runtime(n_nodes, radius, seed, config, **kwargs):
    rng = np.random.default_rng(seed)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=n_nodes, n_classes=3, length=200), rng
    )
    topology = uniform_random_topology(n_nodes, radius, rng)
    runtime = SnapshotRuntime(topology, dataset, config, seed=seed, **kwargs)
    runtime.train(duration=10)
    runtime.run_election()
    return runtime, rng


def churning_runtime(seed: int = 3):
    """Lossy links, a crash schedule and §5.1 maintenance every unit."""
    config = ProtocolConfig(threshold=1.0, heartbeat_period=1.0, snoop_probability=0.05)
    runtime, rng = elected_runtime(60, 0.3, seed, config, loss_model=GlobalLoss(0.1))
    crashes = tuple(
        NodeCrash(time=runtime.now + float(at), node_id=int(node), down_for=2.0)
        for at, node in zip(
            rng.uniform(0.0, 20.0, size=12), rng.choice(range(1, 60), 12, replace=False)
        )
    )
    FaultInjector(runtime).apply(FaultPlan(crashes))
    runtime.start_maintenance()
    return runtime


def test_every_hit_under_churn_equals_a_fresh_execution():
    runtime = churning_runtime()
    sink = 0
    template = Query(region=Rect(0.1, 0.1, 0.7, 0.7), aggregate=Aggregate.AVG, use_snapshot=True)
    drill = Query(region=Rect(0.3, 0.0, 0.9, 0.5), use_snapshot=True)
    frontend = QueryFrontEnd(runtime, charge_energy=True).start()
    hits = misses = 0
    answers = set()
    try:
        for step in range(80):
            with frontend.runtime_lock:
                runtime.advance_to(runtime.now + 0.25)
            for query in (template, drill, template):
                served = frontend.submit(query, sink=sink).result(timeout=30)
                with frontend.runtime_lock:
                    fresh = fresh_answer(runtime, served.result)
                    assert served.version == runtime.structure_version()
                # A miss may be answered from a cover memoized earlier
                # in the same state, so it is checked too.
                assert same_answer(served, fresh), (step, query, served.cached)
                if served.cached:
                    hits += 1
                else:
                    misses += 1
                if query is template:
                    answers.add(served.result.aggregate_value)
    finally:
        frontend.stop()
    assert hits >= 40 and misses >= 160
    assert len(answers) > 10  # the network really moved
    assert runtime.structure_version()[1] > 0  # maintenance re-elected


def test_a_charged_depletion_invalidates_what_it_served():
    runtime = make_runtime(n_nodes=24, n_classes=3, seed=17, battery_capacity=100.0)
    runtime.train(duration=10)
    runtime.run_election()
    query = Query(region=Everywhere(), aggregate=Aggregate.AVG, use_snapshot=True)
    sink = min(runtime.alive_ids())
    dry = QueryExecutor(runtime).execute(query, sink=sink, charge_energy=False)
    victim = max(dry.responders - {sink})
    battery = runtime.radio.node(victim).battery
    # one more transmission empties it
    battery.draw(battery.charge - runtime.radio.cost_model.transmit)
    changes = runtime.state_key()[3]
    with QueryFrontEnd(runtime, charge_energy=True) as frontend:
        first = frontend.submit(query, sink=sink).result(timeout=10)
        assert not first.cached and victim in first.result.responders
        assert not runtime.radio.is_alive(victim)
        second = frontend.submit(query, sink=sink).result(timeout=10)
    assert not second.cached
    assert victim not in second.result.responders
    assert runtime.state_key()[3] == changes + 1


def test_a_charged_resignation_invalidates_what_it_served():
    config = ProtocolConfig(threshold=1.0, energy_resign_fraction=0.5)
    runtime, _ = elected_runtime(24, 2.0, 17, config, battery_capacity=100.0)
    query = Query(region=Everywhere(), aggregate=Aggregate.AVG, use_snapshot=True)
    sink = min(runtime.alive_ids())
    dry = QueryExecutor(runtime).execute(query, sink=sink, charge_energy=False)
    victim = max(
        node_id for node_id in dry.responders - {sink}
        if runtime.nodes[node_id].represented
    )
    battery = runtime.radio.node(victim).battery
    # one more transmission takes it below half its capacity
    battery.draw(battery.charge - 50.5)
    changes = runtime.state_key()[3]
    with QueryFrontEnd(runtime, charge_energy=True) as frontend:
        first = frontend.submit(query, sink=sink).result(timeout=10)
        assert not first.cached
        assert not runtime.nodes[victim].represented  # resigned
        second = frontend.submit(query, sink=sink).result(timeout=10)
        third = frontend.submit(query, sink=sink).result(timeout=10)
    assert not second.cached and third.cached
    assert runtime.state_key()[3] == changes + 1
    assert second.result.reports != first.result.reports


def test_a_device_failed_by_hand_invalidates_what_was_served():
    runtime = make_runtime(n_nodes=24, n_classes=3, seed=17)
    runtime.train(duration=10)
    runtime.run_election()
    query = Query(region=Everywhere(), aggregate=Aggregate.AVG, use_snapshot=True)
    sink = min(runtime.alive_ids())
    with QueryFrontEnd(runtime, charge_energy=False) as frontend:
        first = frontend.submit(query, sink=sink).result(timeout=10)
        victim = max(first.result.responders - {sink})
        with frontend.runtime_lock:
            runtime.radio.node(victim).fail()  # outside any event
        second = frontend.submit(query, sink=sink).result(timeout=10)
        with frontend.runtime_lock:
            fresh = fresh_answer(runtime, second.result)
    assert not second.cached
    assert victim not in second.result.responders
    assert same_answer(second, fresh)


def test_a_resignation_by_another_executor_invalidates_what_was_served():
    config = ProtocolConfig(threshold=1.0, energy_resign_fraction=0.5)
    runtime, _ = elected_runtime(24, 2.0, 17, config, battery_capacity=100.0)
    query = Query(region=Everywhere(), aggregate=Aggregate.AVG, use_snapshot=True)
    sink = min(runtime.alive_ids())
    dry = QueryExecutor(runtime).execute(query, sink=sink, charge_energy=False)
    victim = max(
        node_id for node_id in dry.responders - {sink}
        if runtime.nodes[node_id].represented
    )
    battery = runtime.radio.node(victim).battery
    # one more transmission takes it below half its capacity
    battery.draw(battery.charge - 50.5)
    with QueryFrontEnd(runtime, charge_energy=False) as frontend:
        first = frontend.submit(query, sink=sink).result(timeout=10)
        with frontend.runtime_lock:
            QueryExecutor(runtime).execute(query, sink=sink, charge_energy=True)
        assert not runtime.nodes[victim].represented  # resigned
        second = frontend.submit(query, sink=sink).result(timeout=10)
        with frontend.runtime_lock:
            fresh = fresh_answer(runtime, second.result)
    assert not second.cached
    assert second.result.reports != first.result.reports
    assert same_answer(second, fresh)


def test_trees_count_floods_performed():
    runtime = make_runtime(n_nodes=20, n_classes=2, seed=11)
    runtime.train(duration=10)
    runtime.run_election()
    regions = [Rect(0.0, 0.0, 0.2 * (i + 1), 1.0) for i in range(4)]
    with QueryFrontEnd(runtime, cache=False, charge_energy=False) as frontend:
        for region in regions:  # one batch each: four trees asked for
            frontend.submit(
                Query(region=region, aggregate=Aggregate.AVG, use_snapshot=True), sink=0
            ).result(timeout=10)
        assert frontend.stats()["trees_built"] == 1
        runtime.radio.node(max(runtime.alive_ids())).fail()
        frontend.submit(
            Query(region=regions[0], aggregate=Aggregate.AVG, use_snapshot=True), sink=0
        ).result(timeout=10)
        assert frontend.stats()["trees_built"] == 2
