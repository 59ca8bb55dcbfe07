"""The device-liveness column (``network.state.DeviceState``).

Liveness is one byte per node id, written by ``NetworkNode.fail`` /
``restore`` and by the battery at the draw that empties it, and read
by the radio, the planner and the executor.  These tests recompute
liveness from each device's battery and failure history and compare it
with every reader, through random operation sequences, a checkpoint →
restore, and pickles unpickled device-first, radio-first or whole.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.runtime import SnapshotRuntime
from repro.energy.battery import Battery
from repro.energy.costs import EnergyCostModel
from repro.faults.injector import FaultInjector
from repro.network.messages import DataReport
from repro.network.node import NetworkNode
from repro.network.radio import Radio
from repro.query.ast import Query
from repro.query.executor import QueryExecutor
from repro.query.planner import QueryPlanner
from repro.query.spatial import Everywhere
from tests.conftest import make_runtime

N_NODES = 10
CAPACITY = 12.0


def finite_runtime(capacity: float = CAPACITY) -> SnapshotRuntime:
    """Finite batteries, and a receive cost so bursts drain receivers."""
    return make_runtime(
        n_nodes=N_NODES,
        transmission_range=0.5,
        seed=3,
        battery_capacity=capacity,
        cost_model=EnergyCostModel(transmit=1.0, receive=0.5, cpu_cache_update=0.1),
    )


def send(runtime: SnapshotRuntime, sender: int) -> None:
    """One broadcast, delivered before returning."""
    runtime.radio.broadcast(
        DataReport(sender=sender, query_id=0, origin=sender, value=1.0)
    )
    runtime.advance_to(runtime.now + 0.01)


def assert_column_matches(runtime: SnapshotRuntime, failed: set[int]) -> None:
    """Every reader of the column against a recomputation from each
    device's battery charge and the failures the test applied."""
    radio = runtime.radio
    expected = [
        node_id
        for node_id in sorted(radio.nodes)
        if node_id not in failed and radio.node(node_id).battery.charge > 0.0
    ]
    assert radio.alive_ids() == expected
    assert runtime.alive_ids() == expected
    for node_id, device in radio.nodes.items():
        alive = node_id in expected
        assert radio.is_alive(node_id) is alive
        assert device.alive is alive
        assert runtime.nodes[node_id].alive is alive
        assert device.failed is (node_id in failed)
    assert not radio.is_alive(-1) and not radio.is_alive(len(radio.nodes))


operations = st.lists(
    st.tuples(
        st.sampled_from(["fail", "restore", "drain", "send"]),
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.sampled_from([0.1, 0.5, 1.0]),
    ),
    max_size=25,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=operations)
def test_column_equals_battery_and_failure_state(ops):
    runtime = finite_runtime()
    injector = FaultInjector(runtime)
    failed: set[int] = set()
    assert_column_matches(runtime, failed)
    for op, node_id, fraction in ops:
        device = runtime.radio.node(node_id)
        if op == "fail":
            device.fail()
            failed.add(node_id)
        elif op == "restore":
            device.restore()
            failed.discard(node_id)
        elif op == "drain":
            injector.drain(node_id, fraction)
        else:
            for _ in range(int(fraction * 10)):
                send(runtime, node_id)
        assert_column_matches(runtime, failed)


def test_a_drained_network_reads_dead_everywhere():
    """Sends alone can empty every battery (non-vacuity of the above)."""
    runtime = finite_runtime()
    for _ in range(int(CAPACITY) + 1):
        for node_id in range(N_NODES):
            send(runtime, node_id)
    assert runtime.alive_ids() == []
    assert_column_matches(runtime, set())


def test_checkpoint_restore_keeps_one_column(tmp_path):
    """After a restore, ``fail`` still reaches every reader: the devices,
    the batteries and the radio share one restored column."""
    runtime = finite_runtime(capacity=200.0)
    runtime.train(duration=3)
    runtime.run_election()
    runtime.radio.node(2).fail()
    FaultInjector(runtime).drain(4, 1.0)
    path = tmp_path / "column.ckpt"
    runtime.checkpoint(path)
    restored = SnapshotRuntime.restore(path)
    assert_column_matches(restored, {2})

    victim = max(restored.alive_ids())
    restored.radio.node(victim).fail()
    assert_column_matches(restored, {2, victim})
    census = QueryPlanner(restored).estimate_cost(
        Query(region=Everywhere(), use_snapshot=False)
    )
    assert census.responders == N_NODES - 3
    tree = QueryExecutor(restored).build_tree(min(restored.alive_ids()))
    assert victim not in tree.parents and 2 not in tree.parents
    # a draw that empties a restored battery reaches the column too
    survivor = max(restored.alive_ids())
    restored.radio.node(survivor).battery.draw(math.inf)
    assert not restored.radio.is_alive(survivor)


def test_unregistered_ids_are_not_alive(simulator, small_topology):
    radio = Radio(simulator, small_topology)
    radio.register(NetworkNode(4, Battery(None)))
    assert radio.alive_ids() == [4]
    assert [radio.is_alive(i) for i in (-1, 3, 4, 9)] == [False, False, True, False]


def test_battery_depleted_before_registration_stays_dead(simulator, small_topology):
    radio = Radio(simulator, small_topology)
    device = NetworkNode(1, Battery(0.0))
    device.fail()
    device.restore()
    assert not device.alive
    radio.register(device)
    assert not radio.is_alive(1) and not device.failed


def test_infinite_capacity_is_refused():
    """``None`` is the infinite battery; ``inf`` used to make every
    representative resign at every energy check."""
    with pytest.raises(ValueError, match="finite"):
        make_runtime(n_nodes=4, battery_capacity=math.inf)


# ----------------------------------------------------------------------
# unpickling order
# ----------------------------------------------------------------------


@pytest.mark.parametrize("order", ["runtime", "device-first", "radio-first"])
def test_any_unpickling_order_restores_onto_one_column(order):
    """Whichever of a device and its radio is unpickled first, the
    devices end up on the radio's column with their old liveness."""
    runtime = finite_runtime()
    runtime.radio.node(1).fail()
    FaultInjector(runtime).drain(5, 1.0)
    before = runtime.state_digest()
    if order == "runtime":
        restored = pickle.loads(pickle.dumps(runtime))
    elif order == "device-first":
        _, restored = pickle.loads(pickle.dumps((runtime.radio.node(0), runtime)))
    else:
        _, restored = pickle.loads(pickle.dumps((runtime.radio, runtime)))
    radio = restored.radio
    for node_id, device in radio.nodes.items():
        assert device._state is radio.devices and device._slot == node_id
        assert device.battery._state is radio.devices
    assert_column_matches(restored, {1})
    assert restored.state_digest() == before
    radio.node(7).fail()
    assert not radio.is_alive(7) and 7 not in restored.alive_ids()
