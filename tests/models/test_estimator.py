"""Estimating a neighbor: the cache policy's models and the §3 test.

A node estimates ``x̂_j`` straight from its cache policy, and
``ProtocolNode.can_represent`` tests ``d(x_j, x̂_j) <= T`` on it.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import ProtocolNode
from repro.models.cache import BYTES_PER_PAIR
from repro.models.cache_manager import ModelAwareCache
from repro.models.metrics import SumSquaredError
from repro.network.radio import Radio
from repro.network.topology import Topology
from repro.simulation.engine import Simulator


def make_cache(pairs: int = 16) -> ModelAwareCache:
    return ModelAwareCache(BYTES_PER_PAIR * pairs)


def make_node(threshold: float) -> ProtocolNode:
    """A lone protocol node under the SSE metric at ``threshold``."""
    simulator = Simulator(seed=0)
    topology = Topology([(0.0, 0.0)], ranges=1.0)
    radio = Radio(simulator, topology)
    radio.populate()
    config = ProtocolConfig(threshold=threshold, metric=SumSquaredError())
    return ProtocolNode(
        0, radio, make_cache(), config, value_fn=lambda: 0.0, location=(0.0, 0.0)
    )


class TestEstimation:
    def test_no_history_no_estimate(self):
        cache = make_cache()
        assert cache.estimate(3, own_value=1.0) is None
        assert cache.model(3) is None

    def test_linear_neighbor_estimated(self):
        cache = make_cache()
        for x in range(5):
            cache.observe(3, own_value=float(x), neighbor_value=2.0 * x + 1.0)
        assert cache.estimate(3, own_value=10.0) == pytest.approx(21.0)

    def test_can_represent_uses_metric_and_threshold(self):
        node = make_node(threshold=0.01)
        for x in range(5):
            node.cache.observe(3, float(x), 2.0 * x)
        assert node.can_represent(3, neighbor_value=20.0, own_value=10.0)
        assert not node.can_represent(3, neighbor_value=25.0, own_value=10.0)

    def test_can_represent_false_without_model(self):
        node = make_node(threshold=1e9)
        assert not node.can_represent(9, 1.0, 1.0)

    def test_known_neighbors(self):
        cache = make_cache()
        cache.observe(5, 0.0, 1.0)
        cache.observe(2, 0.0, 1.0)
        assert cache.known_neighbors() == [2, 5]
