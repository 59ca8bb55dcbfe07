"""Equivalence of the linear-time query path with full-scan references.

Each production path answers from what a request touches: the flood
skips link sampling over lossless links, the planner counts in one
pass, snapshot execution walks tree members only.  Each is checked here
against a reference that does the work the long way:

* the flood against a per-link flood that samples every pending link
  and breaks parent ties with ``min`` — same tree, same RNG state — and,
  over lossless links, against a plain BFS;
* ``plan``/``estimate_cost`` against values composed from
  ``regular_responders``/``snapshot_responders`` and a scan of every
  alive node's topology position, on a runtime holding failed,
  battery-depleted, failed-then-restored, PASSIVE, ACTIVE and UNDEFINED
  nodes, over rectangles, circles and the whole plane;
* ``execute(tree=...)`` on hand-built trees (dead members, non-members)
  against a scan over every node of the network.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.status import NodeMode
from repro.network.links import PERFECT_LINKS, GlobalLoss, PerLinkLoss
from repro.network.topology import uniform_random_topology
from repro.query.aggregation_tree import AggregationTree
from repro.query.ast import Aggregate, Query
from repro.query.executor import QueryExecutor
from repro.query.planner import (
    AGGREGATE_BYTES,
    REPORT_BYTES,
    QueryCostEstimate,
    QueryPlanner,
)
from repro.query.spatial import Circle, Everywhere, Rect
from tests.conftest import make_runtime, scalar_delivered

# ----------------------------------------------------------------------
# flood
# ----------------------------------------------------------------------


def per_link_flood(topology, sink, alive, rng, loss_model, prefer=frozenset()):
    """The flood sampled link by link, ties broken by ``min``."""
    parents = {sink: sink}
    depths = {sink: 0}
    frontier = [sink]
    depth = 0
    while frontier:
        depth += 1
        heard: dict[int, list[int]] = {}
        for broadcaster in frontier:
            for receiver in topology.out_neighbors(broadcaster):
                if receiver in parents or receiver not in alive:
                    continue
                if scalar_delivered(loss_model, broadcaster, receiver, rng):
                    heard.setdefault(receiver, []).append(broadcaster)
        frontier = []
        for receiver in sorted(heard):
            parents[receiver] = min(
                heard[receiver], key=lambda node: (node not in prefer, node)
            )
            depths[receiver] = depth
            frontier.append(receiver)
    return parents, depths


def plain_bfs(topology, sink, alive):
    """Hop-count BFS; a node's parent is its smallest-id upstream neighbor."""
    parents = {sink: sink}
    depths = {sink: 0}
    frontier = [sink]
    while frontier:
        level: dict[int, int] = {}
        for broadcaster in frontier:
            for receiver in topology.out_neighbors(broadcaster):
                if receiver in alive and receiver not in parents:
                    level[receiver] = min(level.get(receiver, broadcaster), broadcaster)
        for receiver, parent in level.items():
            parents[receiver] = parent
            depths[receiver] = depths[parent] + 1
        frontier = sorted(level)
    return parents, depths


def flood_case(seed: int):
    rng = np.random.default_rng(seed)
    topology = uniform_random_topology(60, 0.25, rng)
    alive = {node for node in topology.node_ids if rng.random() > 0.15}
    sink = min(alive)
    prefer = frozenset(node for node in alive if rng.random() < 0.3)
    blocked = PerLinkLoss(base=0.2)
    links = [(s, r) for s in topology.node_ids for r in topology.out_neighbors(s)]
    for sender, receiver in links[::7]:
        blocked.set_link(sender, receiver, float(rng.choice([0.0, 0.6, 1.0])))
    return topology, alive, sink, prefer, blocked


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("loss", ["global", "per-link"])
@pytest.mark.parametrize("preferring", [False, True])
def test_lossy_flood_matches_per_link_reference(seed, loss, preferring):
    topology, alive, sink, prefer, blocked = flood_case(seed)
    loss_model = GlobalLoss(0.3) if loss == "global" else blocked
    assert not loss_model.lossless
    prefer = prefer if preferring else frozenset()
    fast_rng = np.random.default_rng(seed + 100)
    slow_rng = np.random.default_rng(seed + 100)
    tree = AggregationTree.build(
        topology, sink, alive, fast_rng, loss_model=loss_model, prefer=prefer
    )
    parents, depths = per_link_flood(
        topology, sink, alive, slow_rng, loss_model, prefer
    )
    assert tree.parents == parents
    assert tree.depths == depths
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "loss_model",
    [PERFECT_LINKS, PerLinkLoss(0.0, {(0, 1): 0.0})],
    ids=["perfect", "per-link-zero"],
)
def test_lossless_flood_is_a_plain_bfs_that_draws_nothing(seed, loss_model):
    topology, alive, sink, prefer, _ = flood_case(seed)
    assert loss_model.lossless
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    tree = AggregationTree.build(topology, sink, alive, rng, loss_model=loss_model)
    assert (tree.parents, tree.depths) == plain_bfs(topology, sink, alive)
    assert rng.bit_generator.state == before
    # with preferred parents it still equals the per-link reference
    preferred = AggregationTree.build(
        topology, sink, alive, rng, loss_model=loss_model, prefer=prefer
    )
    assert (preferred.parents, preferred.depths) == per_link_flood(
        topology, sink, alive, rng, loss_model, prefer
    )
    assert rng.bit_generator.state == before


def test_lossless_is_derived_from_the_model():
    assert PERFECT_LINKS.lossless and not GlobalLoss(0.1).lossless
    links = PerLinkLoss(0.0)
    assert links.lossless
    links.set_link(0, 1, 1.0)
    assert not links.lossless
    # Kept by ``set_link`` in O(1): overriding a lossy link back to zero
    # restores losslessness, a lossless override never breaks it.
    links.set_link(0, 1, 0.0)
    links.set_link(2, 3, 0.0)
    assert links.lossless
    links.set_link(2, 3, 0.5)
    links.set_link(2, 3, 0.7)
    assert not links.lossless
    links.set_link(2, 3, 0.0)
    assert links.lossless
    assert not PerLinkLoss(0.0, overrides={(4, 5): 0.2}).lossless


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def mixed_runtime():
    """An elected runtime holding dead, PASSIVE, ACTIVE and UNDEFINED nodes,
    one of them with a location that is not its topology position object.
    Of the dead, two were failed and one ran its battery empty; one more
    node was failed and restored."""
    runtime = make_runtime(
        n_nodes=30,
        n_classes=3,
        seed=21,
        transmission_range=0.35,
        battery_capacity=1e9,
    )
    runtime.train(duration=10)
    runtime.run_election()
    passive = sorted(
        node_id for node_id, node in runtime.nodes.items()
        if node.mode is NodeMode.PASSIVE
    )
    active = sorted(
        node_id for node_id, node in runtime.nodes.items()
        if node.mode is NodeMode.ACTIVE
    )
    runtime.radio.node(passive[0]).fail()
    runtime.radio.node(active[0]).fail()
    runtime.radio.node(active[1]).battery.draw(math.inf)
    runtime.radio.node(passive[3]).fail()
    runtime.radio.node(passive[3]).restore()
    moved = runtime.nodes[passive[1]]
    moved.mode = NodeMode.UNDEFINED
    moved.location = (1.0 - moved.location[0], 1.0 - moved.location[1])
    copied = runtime.nodes[passive[2]]
    x, y = copied.location
    copied.location = (x, y)  # equal to its position, not the same object
    # A representative that learned a member location away from the
    # member's topology position (an Accept sent from elsewhere).
    rep = next(
        runtime.nodes[node_id] for node_id in active[2:] if runtime.nodes[node_id].represented
    )
    info = rep.represented[min(rep.represented)]
    info.location = (1.0 - info.location[0], 1.0 - info.location[1])
    modes = {node.mode for node in runtime.nodes.values() if node.alive}
    assert modes == {NodeMode.PASSIVE, NodeMode.ACTIVE, NodeMode.UNDEFINED}
    assert len(runtime.alive_ids()) == len(runtime.nodes) - 3
    assert runtime.radio.is_alive(passive[3])
    assert not runtime.nodes[active[1]].alive
    return runtime


coords = st.floats(min_value=-0.1, max_value=1.1, allow_nan=False)


@st.composite
def regions(draw):
    kind = draw(st.sampled_from(["rect", "circle", "everywhere"]))
    if kind == "everywhere":
        return Everywhere()
    if kind == "circle":
        radius = draw(st.floats(min_value=0.0, max_value=0.8, allow_nan=False))
        return Circle(draw(coords), draw(coords), radius)
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return Rect(x0, y0, x1, y1)


@st.composite
def queries(draw):
    use_snapshot = draw(st.booleans())
    return Query(
        region=draw(regions()),
        aggregate=draw(st.sampled_from([None, Aggregate.AVG, Aggregate.COUNT])),
        use_snapshot=use_snapshot,
        snapshot_threshold=(
            draw(st.sampled_from([None, 0.5, 2.0])) if use_snapshot else None
        ),
    )


def scan_selectivity(runtime, query) -> float:
    """Fraction of alive nodes whose topology position the region holds."""
    alive = runtime.alive_ids()
    if not alive:
        return 0.0
    position = runtime.topology.position
    inside = sum(1 for node_id in alive if query.region.contains(*position(node_id)))
    return inside / len(alive)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=queries(), use_snapshot=st.sampled_from([None, False, True]))
def test_plan_and_estimate_match_composed_values(mixed_runtime, query, use_snapshot):
    planner = QueryPlanner(mixed_runtime)
    regular = len(planner.regular_responders(query))
    snapshot = len(planner.snapshot_responders(query))
    n_alive = len(mixed_runtime.alive_ids())
    per_round = planner._transmissions_per_round

    plan = planner.plan(query)
    assert plan.estimate == planner.estimate_cost(query, use_snapshot=plan.use_snapshot)
    assert plan.estimated_regular_cost == per_round(query, regular)
    if plan.needs_election:
        assert plan.estimated_snapshot_cost == math.inf
        assert not plan.use_snapshot
    else:
        assert plan.estimated_snapshot_cost == per_round(query, snapshot)
        assert plan.use_snapshot == (
            per_round(query, snapshot) < per_round(query, regular)
        )

    mode = query.use_snapshot if use_snapshot is None else use_snapshot
    responders = snapshot if mode else regular
    hops = planner._mean_hops()
    if query.is_aggregate:
        routers = hops
        per_round_bytes = responders * REPORT_BYTES + routers * AGGREGATE_BYTES
    else:
        routers = responders * hops
        per_round_bytes = responders * (1.0 + hops) * REPORT_BYTES
    assert planner.estimate_cost(query, use_snapshot=use_snapshot) == QueryCostEstimate(
        use_snapshot=mode,
        responders=responders,
        nodes_touched=min(n_alive, responders + math.ceil(routers)),
        bytes_on_network=per_round_bytes * query.rounds,
        selectivity=scan_selectivity(mixed_runtime, query),
        transmissions=per_round(query, responders),
        rounds=query.rounds,
    )


def test_census_reads_a_moved_node_at_its_own_location(mixed_runtime):
    """A node whose location left its topology position answers snapshot
    queries where it is, not where the topology put it."""
    planner = QueryPlanner(mixed_runtime)
    (moved,) = [
        node for node in mixed_runtime.nodes.values()
        if node.alive and node.mode is NodeMode.UNDEFINED
    ]
    for x, y in (moved.location, mixed_runtime.topology.position(moved.node_id)):
        query = Query(region=Rect(x, y, x, y), use_snapshot=True)
        assert planner.estimate_cost(query).responders == len(
            planner.snapshot_responders(query)
        )
        assert planner.estimate_cost(query).selectivity == scan_selectivity(
            mixed_runtime, query
        )


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------


class FullScanExecutor(QueryExecutor):
    """Ground truth and snapshot responders chosen by a scan over every
    node, liveness read from each device."""

    def _matching_nodes(self, query):
        runtime = self.runtime
        return [
            node_id
            for node_id in runtime.topology.node_ids
            if query.region.contains(*runtime.topology.position(node_id))
            and (
                query.value_predicate is None
                or query.value_predicate.matches(runtime.value_of(node_id))
            )
        ]

    def _snapshot_bundles(self, query, tree):
        runtime = self.runtime
        bundles = {}
        for node_id in sorted(runtime.nodes):
            node = runtime.nodes[node_id]
            if not node.alive or node_id not in tree.members:
                continue
            if node.mode is NodeMode.PASSIVE:
                continue
            bundle = {}
            if query.region.contains(*node.location):
                own = node.value_fn()
                if query.value_predicate is None or query.value_predicate.matches(own):
                    bundle[node_id] = (own, False)
            if node.mode is NodeMode.ACTIVE:
                for member_id in sorted(node.represented):
                    location = node.represented[member_id].location
                    if location is None or not query.region.contains(*location):
                        continue
                    estimate = node.estimate_for(member_id)
                    if estimate is None:
                        continue
                    if (
                        query.value_predicate is None
                        or query.value_predicate.matches(estimate)
                    ):
                        bundle[member_id] = (estimate, True)
            if bundle:
                bundles[node_id] = bundle
        return bundles

    def _regular_bundles(self, query, matching_alive, tree):
        return {
            node: {node: (self.runtime.value_of(node), False)}
            for node in sorted(matching_alive)
            if node in tree.members
        }


def hand_built_trees(runtime):
    """Star and chain trees with dead members and left-out nodes."""
    alive = sorted(runtime.alive_ids())
    dead = sorted(set(runtime.nodes) - set(alive))
    sink = alive[0]
    some = alive[::2] + dead  # every other alive node is left out
    star = AggregationTree(
        sink=sink,
        parents={node: sink for node in some},
        depths={node: int(node != sink) for node in some},
    )
    chain_nodes = [sink] + [node for node in alive[1:] if node % 3] + dead
    chain = AggregationTree(
        sink=sink,
        parents={
            node: chain_nodes[max(0, i - 1)] for i, node in enumerate(chain_nodes)
        },
    )
    return [star, chain]


@pytest.mark.parametrize("tree_index", [0, 1])
@pytest.mark.parametrize("use_snapshot", [True, False])
@pytest.mark.parametrize(
    "region",
    [
        Rect(0.0, 0.0, 1.0, 1.0),
        Rect(0.0, 0.0, 0.5, 0.6),
        Rect(0.4, 0.2, 0.9, 0.9),
        Circle(0.5, 0.5, 0.3),
        Circle(0.1, 0.9, 0.45),
        Everywhere(),
    ],
    ids=repr,
)
def test_execute_on_hand_built_trees_matches_full_scan(
    mixed_runtime, tree_index, use_snapshot, region
):
    tree = hand_built_trees(mixed_runtime)[tree_index]
    query = Query(region=region, aggregate=Aggregate.AVG, use_snapshot=use_snapshot)
    fast = QueryExecutor(mixed_runtime).execute(
        query, sink=tree.sink, tree=tree, charge_energy=False
    )
    slow = FullScanExecutor(mixed_runtime).execute(
        query, sink=tree.sink, tree=tree, charge_energy=False
    )
    assert fast.reports == slow.reports
    assert fast.responders == slow.responders
    assert fast.routers == slow.routers
    assert fast.aggregate_value == slow.aggregate_value
    assert fast.matching_all == slow.matching_all
    assert fast.matching_alive == slow.matching_alive
    if region in (Rect(0.0, 0.0, 1.0, 1.0), Everywhere()):
        assert fast.reports  # non-vacuous
        dead = set(mixed_runtime.nodes) - set(mixed_runtime.alive_ids())
        assert fast.matching_all - fast.matching_alive == dead
