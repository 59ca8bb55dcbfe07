"""Tests for node placement and connectivity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.network.topology import Topology, uniform_random_topology
from tests.conftest import grid_topology


class TestTopology:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Topology([], ranges=1.0)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            Topology([(0.0, 0.0)], ranges=0.0)

    def test_rejects_mismatched_ranges(self):
        with pytest.raises(ValueError):
            Topology([(0.0, 0.0), (1.0, 1.0)], ranges=[0.5])

    def test_distance(self):
        topo = Topology([(0.0, 0.0), (3.0, 4.0)], ranges=10.0)
        assert topo.distance(0, 1) == pytest.approx(5.0)

    def test_out_neighbors_respect_range(self):
        topo = Topology([(0.0, 0.0), (0.5, 0.0), (2.0, 0.0)], ranges=1.0)
        assert topo.out_neighbors(0) == (1,)
        assert set(topo.out_neighbors(1)) == {0}  # node 2 is 1.5 away
        assert topo.out_neighbors(2) == ()

    def test_asymmetric_links(self):
        """Different per-node ranges make 'can transmit' directional."""
        topo = Topology([(0.0, 0.0), (1.0, 0.0)], ranges=[2.0, 0.5])
        assert topo.can_transmit(0, 1)
        assert not topo.can_transmit(1, 0)
        assert topo.out_neighbors(0) == (1,)
        assert topo.out_neighbors(1) == ()
        assert topo.in_neighbors(1) == (0,)
        assert topo.in_neighbors(0) == ()

    def test_no_self_neighbor(self):
        topo = grid_topology(2, transmission_range=5.0)
        for node in topo.node_ids:
            assert node not in topo.out_neighbors(node)

    def test_full_range_sees_everyone(self):
        rng = np.random.default_rng(1)
        topo = uniform_random_topology(30, math.sqrt(2), rng)
        for node in topo.node_ids:
            assert len(topo.out_neighbors(node)) == 29


class TestGenerators:
    def test_uniform_positions_in_unit_square(self):
        rng = np.random.default_rng(5)
        topo = uniform_random_topology(50, 0.3, rng)
        assert len(topo) == 50
        for node in topo.node_ids:
            x, y = topo.position(node)
            assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0

    def test_uniform_rejects_bad_count(self):
        with pytest.raises(ValueError):
            uniform_random_topology(0, 0.3, np.random.default_rng(0))

    def test_determinism(self):
        a = uniform_random_topology(10, 0.5, np.random.default_rng(3))
        b = uniform_random_topology(10, 0.5, np.random.default_rng(3))
        assert [a.position(i) for i in a.node_ids] == [
            b.position(i) for i in b.node_ids
        ]


class TestGridBucketing:
    """The spatial-grid neighbor computation matches brute force exactly."""

    @staticmethod
    def _brute_force_out(positions, ranges):
        out = []
        for i, (xi, yi) in enumerate(positions):
            hearers = []
            for j, (xj, yj) in enumerate(positions):
                if i == j:
                    continue
                dx, dy = xi - xj, yi - yj
                if np.sqrt(dx * dx + dy * dy) <= ranges[i]:
                    hearers.append(j)
            out.append(tuple(hearers))
        return out

    def test_matches_brute_force_mixed_ranges(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 80))
            positions = [(float(x), float(y)) for x, y in rng.random((n, 2))]
            ranges = [float(r) for r in rng.uniform(0.05, 0.8, n)]
            topo = Topology(positions, ranges)
            expected = self._brute_force_out(positions, ranges)
            assert [topo.out_neighbors(i) for i in range(n)] == expected

    def test_matches_brute_force_offsets_outside_unit_square(self):
        """Negative and large coordinates hash into the grid correctly."""
        rng = np.random.default_rng(6)
        positions = [
            (float(x), float(y)) for x, y in rng.uniform(-3.0, 7.0, (60, 2))
        ]
        topo = Topology(positions, 1.3)
        expected = self._brute_force_out(positions, [1.3] * 60)
        assert [topo.out_neighbors(i) for i in range(60)] == expected

    def test_in_neighbors_are_reverse_of_out(self):
        rng = np.random.default_rng(7)
        topo = uniform_random_topology(50, 0.4, rng)
        for receiver in topo.node_ids:
            expected = tuple(
                sender
                for sender in topo.node_ids
                if receiver in topo.out_neighbors(sender)
            )
            assert topo.in_neighbors(receiver) == expected

    def test_can_transmit_agrees_with_out_neighbors(self):
        rng = np.random.default_rng(8)
        topo = uniform_random_topology(40, 0.3, rng)
        for sender in topo.node_ids:
            hearers = set(topo.out_neighbors(sender))
            for receiver in topo.node_ids:
                assert topo.can_transmit(sender, receiver) == (receiver in hearers)

    def test_single_node(self):
        topo = Topology([(0.5, 0.5)], ranges=1.0)
        assert topo.out_neighbors(0) == ()
        assert topo.in_neighbors(0) == ()
