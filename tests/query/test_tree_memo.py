"""The lossless tree memo of ``QueryExecutor.build_tree``.

Over a lossless radio the flood draws nothing, so ``build_tree`` keeps
the trees of one (topology, liveness) state, keyed on the sink and the
``prefer`` set.  Every memoized tree is compared here with a fresh
``AggregationTree.build`` of the same state: after a crash and a
revive, after mobility installs a new topology, with representative
routing on, and with an explicit ``alive`` set.  Over a lossy radio
there is no memo: N builds leave the trees and the ``query`` stream
exactly where N direct floods leave them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.status import NodeMode
from repro.network.links import GlobalLoss
from repro.network.mobility import GaussianDrift, apply_mobility
from repro.query.aggregation_tree import AggregationTree
from repro.query.ast import Aggregate, Query
from repro.query.executor import QueryExecutor
from repro.query.spatial import Everywhere
from tests.conftest import make_runtime


def elected(seed: int = 5, **kwargs):
    runtime = make_runtime(
        n_nodes=40, n_classes=3, seed=seed, transmission_range=0.3, **kwargs
    )
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


def non_passive(runtime) -> frozenset[int]:
    return frozenset(
        node_id
        for node_id in runtime.alive_ids()
        if runtime.nodes[node_id].mode is not NodeMode.PASSIVE
    )


def fresh(runtime, sink, prefer=frozenset(), alive=None) -> AggregationTree:
    """A flood of the runtime's current state, on a throwaway stream."""
    return AggregationTree.build(
        runtime.topology,
        sink,
        set(runtime.alive_ids()) if alive is None else alive,
        np.random.default_rng(0),
        loss_model=runtime.radio.loss_model,
        prefer=prefer,
    )


def shape(tree: AggregationTree) -> tuple:
    return tree.sink, tree.parents, tree.depths


def test_a_repeat_build_reuses_the_tree():
    runtime = elected()
    executor = QueryExecutor(runtime)
    sink = min(runtime.alive_ids())
    first = executor.build_tree(sink)
    assert executor.build_tree(sink) is first
    assert executor.floods == 1
    other = max(runtime.alive_ids())
    assert shape(executor.build_tree(other)) == shape(fresh(runtime, other))
    assert executor.build_tree(sink) is first
    assert executor.floods == 2


def test_crash_and_revive_build_the_new_state():
    runtime = elected()
    executor = QueryExecutor(runtime)
    sink = min(runtime.alive_ids())
    before = executor.build_tree(sink)
    # a relay: some other member's parent
    victim = min(parent for node, parent in before.parents.items() if parent not in (node, sink))
    device = runtime.radio.node(victim)

    device.fail()
    crashed = executor.build_tree(sink)
    assert victim not in crashed.parents
    assert shape(crashed) == shape(fresh(runtime, sink))

    device.restore()
    revived = executor.build_tree(sink)
    assert victim in revived.parents
    assert shape(revived) == shape(fresh(runtime, sink)) == shape(before)
    assert executor.floods == 3


def test_a_depleted_battery_is_a_new_state():
    runtime = elected(battery_capacity=1e6)
    executor = QueryExecutor(runtime)
    sink = min(runtime.alive_ids())
    before = executor.build_tree(sink)
    victim = max(before.parents)
    runtime.radio.node(victim).battery.draw(np.inf)
    after = executor.build_tree(sink)
    assert victim not in after.parents
    assert shape(after) == shape(fresh(runtime, sink))


def test_mobility_installs_a_new_topology():
    runtime = elected()
    executor = QueryExecutor(runtime)
    sink = min(runtime.alive_ids())
    old_topology = runtime.topology
    before = executor.build_tree(sink)
    apply_mobility(runtime, GaussianDrift(sigma_per_unit_time=0.05), period=1.0)
    runtime.advance_to(runtime.now + 1.5)
    assert runtime.topology is not old_topology
    moved = executor.build_tree(sink)
    assert shape(moved) == shape(fresh(runtime, sink))
    assert shape(moved) != shape(before)


def test_representative_routing_keys_on_the_prefer_set():
    runtime = elected()
    executor = QueryExecutor(runtime, prefer_representative_routing=True)
    sink = min(runtime.alive_ids())
    preferring = executor.build_tree(sink, use_snapshot=True)
    plain = executor.build_tree(sink, use_snapshot=False)
    assert shape(preferring) == shape(fresh(runtime, sink, prefer=non_passive(runtime)))
    assert shape(plain) == shape(fresh(runtime, sink))
    assert shape(preferring) != shape(plain)
    assert executor.build_tree(sink, use_snapshot=True) is preferring

    # Modes change without any liveness change: a new prefer set.
    for node_id in sorted(non_passive(runtime) - {sink}):
        runtime.nodes[node_id].mode = NodeMode.PASSIVE
    demoted = executor.build_tree(sink, use_snapshot=True)
    assert demoted is not preferring
    assert shape(demoted) == shape(fresh(runtime, sink, prefer=non_passive(runtime)))


def test_an_explicit_alive_set_is_its_own_state():
    runtime = elected()
    executor = QueryExecutor(runtime)
    sink = min(runtime.alive_ids())
    full = executor.build_tree(sink)
    alive = set(runtime.alive_ids()) - {max(full.parents)}
    subset = executor.build_tree(sink, alive=alive)
    assert shape(subset) == shape(fresh(runtime, sink, alive=alive))
    assert subset is not full
    assert executor.build_tree(sink, alive=set(alive)) is subset


def test_executions_reuse_the_tree_and_answer_as_fresh_floods():
    runtime = elected()
    executor = QueryExecutor(runtime)
    sink = min(runtime.alive_ids())
    query = Query(region=Everywhere(), aggregate=Aggregate.AVG, use_snapshot=True)
    answers = [
        executor.execute(query, sink=sink, charge_energy=False) for _ in range(3)
    ]
    assert executor.floods == 1
    reference = QueryExecutor(runtime).execute(
        query, sink=sink, tree=fresh(runtime, sink), charge_energy=False
    )
    for result in answers:
        assert result.reports == reference.reports
        assert result.routers == reference.routers
        assert result.aggregate_value == reference.aggregate_value


@pytest.mark.parametrize("preferring", [False, True])
def test_a_lossy_radio_floods_every_time(preferring):
    """N builds over a lossy radio match N direct floods on a twin
    runtime: the same trees and the same ``query`` stream state."""
    memoized_rt = elected(loss_model=GlobalLoss(0.3))
    direct_rt = elected(loss_model=GlobalLoss(0.3))
    executor = QueryExecutor(memoized_rt, prefer_representative_routing=preferring)
    stream = direct_rt.simulator.random.stream("query")
    sink = min(memoized_rt.alive_ids())
    trees = []
    for _ in range(6):
        built = executor.build_tree(sink, use_snapshot=True)
        prefer = non_passive(direct_rt) if preferring else frozenset()
        reference = AggregationTree.build(
            direct_rt.topology,
            sink,
            set(direct_rt.alive_ids()),
            stream,
            loss_model=direct_rt.radio.loss_model,
            prefer=prefer,
        )
        assert shape(built) == shape(reference)
        trees.append(built)
    assert executor.floods == 6
    assert len({id(tree) for tree in trees}) == 6
    assert len({tuple(sorted(tree.parents.items())) for tree in trees}) > 1
    query_stream = memoized_rt.simulator.random.stream("query")
    assert query_stream.bit_generator.state == stream.bit_generator.state
