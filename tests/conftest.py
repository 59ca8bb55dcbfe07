"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.data.series import Dataset
from repro.network.links import LossModel
from repro.network.topology import Topology, uniform_random_topology
from repro.simulation.engine import Simulator


def scalar_delivered(
    model: LossModel, sender: int, receiver: int, rng: np.random.Generator
) -> bool:
    """One link's delivery outcome, sampled one draw at a time.

    The scalar oracle of :meth:`LossModel.loss_vector`: it draws one
    uniform only for a loss probability strictly inside ``(0, 1)``.
    """
    p = model.loss_probability(sender, receiver)
    if p <= 0.0:
        return True
    if p >= 1.0:
        return False
    return bool(rng.random() >= p)


@pytest.fixture
def simulator() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator for test-local randomness."""
    return np.random.default_rng(98765)


def grid_topology(side: int, transmission_range: float) -> Topology:
    """A ``side x side`` regular grid on the unit square, for tests that
    must know exact neighbor sets a priori."""
    step = 1.0 / side
    positions = [
        (step / 2 + step * col, step / 2 + step * row)
        for row in range(side)
        for col in range(side)
    ]
    return Topology(positions, transmission_range)


@pytest.fixture
def small_topology() -> Topology:
    """A 3x3 grid where everyone hears everyone."""
    return grid_topology(3, transmission_range=2.0)


def make_runtime(
    n_nodes: int = 20,
    n_classes: int = 2,
    transmission_range: float = 2.0,
    threshold: float = 1.0,
    seed: int = 7,
    length: int = 120,
    **runtime_kwargs,
) -> SnapshotRuntime:
    """Convenience builder used across integration tests."""
    data_rng = np.random.default_rng(seed)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=n_nodes, n_classes=n_classes, length=length), data_rng
    )
    topology = uniform_random_topology(n_nodes, transmission_range, data_rng)
    return SnapshotRuntime(
        topology,
        dataset,
        ProtocolConfig(threshold=threshold),
        seed=seed,
        **runtime_kwargs,
    )


@pytest.fixture
def trained_runtime() -> SnapshotRuntime:
    """A 20-node network that has completed the §6.1 warm-up."""
    runtime = make_runtime()
    runtime.train(duration=10)
    return runtime


@pytest.fixture
def constant_dataset() -> Dataset:
    """Nine nodes with constant, pairwise-distinct measurement levels."""
    values = [[float(10 * (node + 1))] * 50 for node in range(9)]
    return Dataset(values)
