"""Tests for TAG-style aggregation trees."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.links import GlobalLoss
from repro.network.topology import Topology
from repro.query.aggregation_tree import AggregationTree
from tests.conftest import grid_topology


def line_topology(n: int, spacing: float = 0.1, reach: float = 0.15) -> Topology:
    return Topology([(spacing * i, 0.0) for i in range(n)], ranges=reach)


class TestConstruction:
    def test_single_hop_star(self):
        topo = grid_topology(3, transmission_range=2.0)
        tree = AggregationTree.build(
            topo, sink=4, alive=set(topo.node_ids), rng=np.random.default_rng(0)
        )
        assert tree.members == frozenset(topo.node_ids)
        assert all(tree.parent(n) == 4 for n in topo.node_ids if n != 4)
        assert tree.depths[0] == 1

    def test_multi_hop_line(self):
        topo = line_topology(5)
        tree = AggregationTree.build(
            topo, sink=0, alive=set(topo.node_ids), rng=np.random.default_rng(0)
        )
        assert tree.path_to_sink(4) == [4, 3, 2, 1, 0]
        assert tree.depths[4] == 4

    def test_dead_nodes_break_the_flood(self):
        topo = line_topology(5)
        tree = AggregationTree.build(
            topo, sink=0, alive={0, 1, 3, 4}, rng=np.random.default_rng(0)
        )
        # node 2 is dead: nodes 3 and 4 are unreachable
        assert 3 not in tree.members
        assert 4 not in tree.members

    def test_dead_sink_rejected(self):
        topo = line_topology(3)
        with pytest.raises(ValueError):
            AggregationTree.build(topo, sink=0, alive={1, 2}, rng=np.random.default_rng(0))

    def test_total_loss_yields_singleton(self):
        topo = line_topology(4)
        tree = AggregationTree.build(
            topo,
            sink=0,
            alive=set(topo.node_ids),
            rng=np.random.default_rng(0),
            loss_model=GlobalLoss(1.0),
        )
        assert tree.members == frozenset({0})

    def test_prefer_chooses_representative_parent(self):
        # nodes 1 and 2 both reach node 3; node 2 is preferred
        topo = Topology(
            [(0.0, 0.0), (0.1, 0.05), (0.1, -0.05), (0.2, 0.0)], ranges=0.15
        )
        rng = np.random.default_rng(0)
        plain = AggregationTree.build(topo, 0, set(topo.node_ids), rng)
        assert plain.parent(3) == 1  # smallest id wins by default
        preferred = AggregationTree.build(
            topo, 0, set(topo.node_ids), np.random.default_rng(0), prefer={2}
        )
        assert preferred.parent(3) == 2


class TestRouters:
    def test_direct_responder_needs_no_router(self):
        topo = grid_topology(2, transmission_range=2.0)
        tree = AggregationTree.build(
            topo, sink=0, alive=set(topo.node_ids), rng=np.random.default_rng(0)
        )
        assert tree.routers_for([3]) == frozenset()

    def test_line_routers(self):
        topo = line_topology(5)
        tree = AggregationTree.build(
            topo, sink=0, alive=set(topo.node_ids), rng=np.random.default_rng(0)
        )
        assert tree.routers_for([4]) == frozenset({1, 2, 3})

    def test_responders_excluded_from_routers(self):
        topo = line_topology(5)
        tree = AggregationTree.build(
            topo, sink=0, alive=set(topo.node_ids), rng=np.random.default_rng(0)
        )
        assert tree.routers_for([4, 2]) == frozenset({1, 3})

    def test_unreachable_responder_ignored(self):
        topo = line_topology(5)
        tree = AggregationTree.build(
            topo, sink=0, alive={0, 1}, rng=np.random.default_rng(0)
        )
        assert tree.routers_for([4]) == frozenset()

    def test_path_of_nonmember_raises(self):
        topo = line_topology(3)
        tree = AggregationTree.build(
            topo, sink=0, alive={0, 1}, rng=np.random.default_rng(0)
        )
        with pytest.raises(KeyError):
            tree.path_to_sink(2)


def naive_path(tree: AggregationTree, member: int) -> list[int]:
    """The pre-memoization walk: follow parents until the sink."""
    path = [member]
    while path[-1] != tree.sink:
        path.append(tree.parents[path[-1]])
    return path


class TestMemoization:
    """Memoized paths must match the naive walk on a pinned tree."""

    def pinned_tree(self) -> AggregationTree:
        topo = grid_topology(5, transmission_range=1.1)  # multi-hop
        return AggregationTree.build(
            topo, sink=0, alive=set(topo.node_ids), rng=np.random.default_rng(7)
        )

    def test_paths_match_naive_walk(self):
        tree = self.pinned_tree()
        for member in sorted(tree.members):
            assert tree.path_to_sink(member) == naive_path(tree, member)

    def test_returned_path_is_a_private_copy(self):
        tree = self.pinned_tree()
        first = tree.path_to_sink(24)
        first.append(-1)  # caller mutation must not poison the memo
        assert tree.path_to_sink(24) == naive_path(tree, 24)

    def test_routers_match_naive_union(self):
        tree = self.pinned_tree()
        for responders in ([24], [24, 12], [6, 18, 23], sorted(tree.members)):
            expected: set[int] = set()
            for responder in responders:
                expected.update(naive_path(tree, responder)[1:-1])
            expected -= set(responders)
            assert tree.routers_for(responders) == frozenset(expected)

    def test_handmade_tree_without_depths(self):
        tree = AggregationTree(sink=0, parents={0: 0, 1: 0, 2: 1, 3: 1})
        assert tree.path_to_sink(3) == [3, 1, 0]
