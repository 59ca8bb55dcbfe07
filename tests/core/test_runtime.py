"""Tests for the SnapshotRuntime facade and configuration validation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.series import Dataset
from repro.models.cache_manager import ModelAwareCache
from repro.models.metrics import AbsoluteError
from repro.models.round_robin import RoundRobinCache
from repro.models.soa import ModelAwareCacheFleet
from repro.network.links import GlobalLoss
from repro.simulation.rng import RandomSource
from tests.conftest import grid_topology, make_runtime


class TestConfigValidation:
    def test_defaults_valid(self):
        ProtocolConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": -1.0},
            {"phase_spacing": 0.0},
            {"max_wait": -1.0},
            {"p_wait": 1.5},
            {"snoop_probability": -0.1},
            {"heartbeat_period": 0.0},
            {"rotation_probability": 2.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolConfig(**kwargs)

    @pytest.mark.parametrize(
        "name", ["threshold", "heartbeat_period", "member_expiry_periods"]
    )
    def test_rejects_nan_by_name(self, name):
        with pytest.raises(ValueError, match=f"{name} .*nan"):
            ProtocolConfig(**{name: float("nan")})

    def test_custom_metric_accepted(self):
        config = ProtocolConfig(metric=AbsoluteError(), threshold=0.5)
        assert config.metric(3.0, 1.0) == 2.0


class TestRuntimeConstruction:
    def test_dataset_must_cover_topology(self):
        topology = grid_topology(3, 1.0)  # 9 nodes
        dataset = Dataset(np.zeros((4, 10)))
        with pytest.raises(ValueError, match="dataset"):
            SnapshotRuntime(topology, dataset)

    def test_value_of_tracks_clock(self):
        runtime = make_runtime(n_nodes=5, n_classes=1)
        v0 = runtime.value_of(0)
        runtime.advance_to(50.0)
        assert runtime.value_of(0) == runtime.dataset.value(0, 50.0)
        assert runtime.now == 50.0

    @pytest.mark.parametrize("time", [0.0, 7.5, 119.0, 250.0, float("inf")])
    def test_value_reader_reads_the_dataset(self, time):
        """A node's reader, and ``value_of``, read its series in one
        step with ``Dataset.value``'s contract: time floored, a read
        past the end (``inf`` too) the last sample."""
        runtime = make_runtime(n_nodes=5, n_classes=1, length=120)
        runtime.simulator.now = time
        for node_id, node in runtime.nodes.items():
            expected = runtime.dataset.value(node_id, time)
            assert type(node.value_fn()) is float
            assert node.value_fn() == expected == runtime.value_of(node_id)
        index = 119 if time >= 119 else int(time)
        assert runtime.nodes[3].value_fn() == runtime.dataset.values[3, index]

    @pytest.mark.parametrize(
        "time,match", [(-0.5, "negative"), (float("nan"), "NaN")]
    )
    def test_value_reader_refuses_bad_times(self, time, match):
        runtime = make_runtime(n_nodes=3, n_classes=1)
        runtime.simulator.now = time
        with pytest.raises(ValueError, match=match):
            runtime.nodes[0].value_fn()
        with pytest.raises(ValueError, match=match):
            runtime.value_of(0)

    def test_alive_ids_shrink_with_battery(self):
        runtime = make_runtime(n_nodes=5, n_classes=1, battery_capacity=3.0)
        assert len(runtime.alive_ids()) == 5
        runtime.radio.node(2).battery.draw(10.0)
        assert 2 not in runtime.alive_ids()


class TestCacheFleet:
    """A runtime binds every model-aware cache to a lane of one fleet."""

    def test_construction_builds_exactly_one_fleet(self, monkeypatch):
        # A cache's private one-lane fleet is built lazily; one built
        # per cache before binding would cost every large deployment.
        built = []
        init = ModelAwareCacheFleet.__init__

        def counting_init(fleet, *args, **kwargs):
            built.append(args)
            init(fleet, *args, **kwargs)

        monkeypatch.setattr(ModelAwareCacheFleet, "__init__", counting_init)
        runtime = make_runtime(n_nodes=12)
        assert len(built) == 1
        fleet = runtime.observation_router.fleet
        assert fleet.F == 12
        assert all(node.cache._fleet is fleet for node in runtime.nodes.values())

    def test_round_robin_caches_have_no_fleet(self):
        runtime = make_runtime(n_nodes=6, cache_factory=lambda: RoundRobinCache(256))
        assert runtime.observation_router is None

    @pytest.mark.parametrize(
        "kinds,budgets,refusal",
        [
            ((ModelAwareCache,), (256, 512), "one byte budget"),
            ((ModelAwareCache, RoundRobinCache), (256,), "other cache policies"),
        ],
        ids=["mixed-budgets", "mixed-policies"],
    )
    def test_mixed_caches_are_refused(self, kinds, budgets, refusal):
        caches = (
            kind(budget)
            for kind, budget in zip(itertools.cycle(kinds), itertools.cycle(budgets))
        )
        with pytest.raises(ValueError, match=refusal):
            make_runtime(n_nodes=6, cache_factory=caches.__next__)

    def test_a_pre_warmed_cache_is_refused(self):
        def warm():
            cache = ModelAwareCache(256)
            cache.observe(1, 0.5, 1.0)
            return cache

        with pytest.raises(ValueError, match="already owns lane"):
            make_runtime(n_nodes=6, cache_factory=warm)

    def test_a_cache_that_owns_a_lane_cannot_be_rebound(self):
        fleet = ModelAwareCacheFleet(2, 256)
        bound = ModelAwareCache(256)
        bound.bind_fleet(fleet, 0)
        used = ModelAwareCache(256)
        used.estimate(3, 1.0)  # builds its private fleet
        for cache in (bound, used):
            with pytest.raises(ValueError, match="already owns lane"):
                cache.bind_fleet(fleet, 1)
        assert bound._fleet is fleet and used._fleet is not fleet


class TestTraining:
    def test_training_builds_models(self):
        runtime = make_runtime(n_nodes=8, n_classes=1)
        runtime.train(duration=10)
        # every node heard every other node's ten broadcasts
        for node in runtime.nodes.values():
            known = node.cache.known_neighbors()
            assert len(known) == 7

    def test_training_advances_clock(self):
        runtime = make_runtime(n_nodes=4, n_classes=1)
        runtime.train(duration=10)
        assert runtime.now == pytest.approx(10.0)

    def test_training_overrides_then_restores_snoop(self):
        runtime = make_runtime(n_nodes=4, n_classes=1)
        for node in runtime.nodes.values():
            node.snoop_probability = 0.05
        runtime.train(duration=5)
        for node in runtime.nodes.values():
            assert node.snoop_probability == 0.05

    def test_invalid_training_window(self):
        runtime = make_runtime(n_nodes=4, n_classes=1)
        with pytest.raises(ValueError):
            runtime.train(duration=0.0)
        with pytest.raises(ValueError):
            runtime.train(duration=5.0, interval=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": float("nan")},
            {"duration": float("inf")},
            {"interval": float("nan")},
            {"start": float("nan")},
        ],
    )
    def test_non_finite_training_window_is_refused(self, kwargs):
        """``train(duration=nan)`` returned with the clock at NaN."""
        runtime = make_runtime(n_nodes=4, n_classes=1)
        with pytest.raises(ValueError, match="nan|inf"):
            runtime.train(**kwargs)
        assert runtime.now == 0.0 and len(runtime.simulator.queue) == 0

    def test_training_messages_counted(self):
        runtime = make_runtime(n_nodes=4, n_classes=1)
        runtime.train(duration=10)
        assert runtime.stats.sent_of_kind("DataReport") == 40


class TestDeterminism:
    def test_same_seed_same_snapshot(self):
        def one(seed: int):
            runtime = make_runtime(n_nodes=20, n_classes=3, seed=seed)
            runtime.train(duration=10)
            runtime.advance_to(100)
            return runtime.run_election()

        a, b = one(9), one(9)
        assert a.representatives == b.representatives
        assert a.assignment == b.assignment

    def test_different_seeds_can_differ(self):
        results = set()
        for seed in range(4):
            runtime = make_runtime(n_nodes=20, n_classes=5, seed=seed)
            runtime.train(duration=10)
            runtime.advance_to(100)
            results.add(runtime.run_election().representatives)
        assert len(results) > 1


def _entity_streams(runtime) -> list[str]:
    return sorted(
        name
        for name in runtime.simulator.random._streams
        if name.split(".")[0] in ("protocol", "radio", "maintenance")
    )


class TestEntityStreams:
    """Each node's random streams are created on its first draw."""

    def test_fresh_runtime_holds_no_entity_streams(self):
        runtime = make_runtime(n_nodes=20, loss_model=GlobalLoss(0.3))
        assert _entity_streams(runtime) == []

    def test_late_stream_draws_like_a_fresh_one(self):
        seed = 7
        runtime = make_runtime(n_nodes=20, seed=seed, loss_model=GlobalLoss(0.3))
        runtime.train(duration=5)
        created = _entity_streams(runtime)
        # Training touches every sender's radio stream and no protocol
        # or maintenance stream (snooping at probability 1 never draws).
        assert created == sorted(f"radio.{i}" for i in runtime.nodes)
        node = runtime.nodes[3]
        late = {
            "protocol.3": node._rng,
            "maintenance.3": runtime.maintenance._node_rng(3),
        }
        for name, stream in late.items():
            assert stream is runtime.simulator.random.stream(name)
            assert list(stream.random(4)) == list(
                RandomSource(seed).stream(name).random(4)
            )
