"""Restores that share state, unpickled in any order, need no hook.

The ledger cells and the delivery counts are registry metrics; the
batteries and liveness bytes are slots of the radio's device state;
the observation router sweeps the caches' fleet.  Whichever of the
objects that share this state is unpickled first, the restored run
digests as the saved one did, holds one set of columns, and resumes on
the saved run's trajectory — here from right after a delivery wave,
whose snooped samples its delivery event already applied.

A checkpoint restores only in code whose digests of it verify: a
payload that does not match this code's classes is refused by name.
That includes every checkpoint written while simulated time lived in a
``SimulationClock`` and snooped samples could wait in the router
between events.  A device state pickled before its ``changes`` count,
a field the digests do not read, restores and runs on.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro.core.runtime import SnapshotRuntime
from repro.energy.costs import EnergyCostModel
from repro.persist import CheckpointIntegrityError, load_checkpoint
from repro.simulation.engine import Simulator
from tests.conftest import make_runtime
from tests.persist.conftest import (
    PARENT_CLOCK_MODULE,
    parent_clock_module,
    save_countless_checkpoint,
    save_parent_checkpoint,
    save_deviceless_checkpoint,
    save_mismatched_checkpoint,
)

#: Roots that make a different object of the shared state unpickle first.
ORDERS = {
    "runtime": lambda runtime: runtime,
    "device-first": lambda runtime: (runtime.radio.node(0), runtime),
    "registry-first": lambda runtime: (runtime.simulator.metrics, runtime),
    "ledger-first": lambda runtime: (runtime.ledger, runtime.stats, runtime),
    "router-first": lambda runtime: (runtime.observation_router, runtime),
}


def after_wave_runtime() -> SnapshotRuntime:
    """A trained, elected, maintained run with a failed node, stopped
    right after a training tick's delivery wave."""
    runtime = make_runtime(
        n_nodes=12,
        transmission_range=0.6,
        seed=11,
        battery_capacity=300.0,
        cost_model=EnergyCostModel(transmit=1.0, receive=0.25, cpu_cache_update=0.1),
    )
    runtime.train(duration=4)
    runtime.run_election()
    runtime.start_maintenance()
    runtime.advance_to(runtime.now + 30.0)
    runtime.radio.node(2).fail()
    simulator = runtime.simulator
    runtime._set_snoop(None)
    simulator.schedule_at(simulator.now, runtime._train_broadcast, label="train:broadcast")
    observed = runtime.metrics.metric("cache.observe")
    before = observed.total()
    while observed.total() == before:
        assert simulator.step()
    return runtime


def assert_one_set_of_columns(runtime: SnapshotRuntime) -> None:
    radio = runtime.radio
    registry = runtime.simulator.metrics
    assert registry.metric("energy.draw") is runtime.ledger._cells
    assert registry.metric("net.messages.delivered") is runtime.stats.delivered
    for node_id, device in radio.nodes.items():
        assert device.battery._state is radio.devices and device._slot == node_id
    assert runtime.observation_router.fleet is runtime.nodes[0].cache._fleet


@pytest.mark.parametrize("order", ORDERS)
def test_any_order_resumes_on_the_same_trajectory(order):
    runtime = after_wave_runtime()
    before = runtime.state_digest()
    restored = pickle.loads(pickle.dumps(ORDERS[order](runtime)))
    if isinstance(restored, tuple):
        restored = restored[-1]
    assert restored.state_digest() == before
    assert_one_set_of_columns(restored)

    end = runtime.now + 40.0
    runtime.advance_to(end)
    restored.advance_to(end)
    assert restored.state_digest() == runtime.state_digest()
    assert restored.ledger.total() == runtime.ledger.total()


def test_mismatched_payload_is_refused_by_name(tmp_path, monkeypatch):
    """Batteries pickled before the energy columns: the payload hash
    holds, the restored graph cannot be digested, and the file is
    refused as an integrity error naming it."""
    path = tmp_path / "mismatched.ckpt"
    save_mismatched_checkpoint(after_wave_runtime(), path, monkeypatch)
    for restore in (load_checkpoint, SnapshotRuntime.restore):
        with pytest.raises(CheckpointIntegrityError) as refused:
            restore(path)
        message = str(refused.value)
        assert str(path) in message
        assert "does not match this code's classes" in message
        assert isinstance(refused.value.__cause__, AttributeError)


def test_a_radio_without_device_columns_is_refused_by_name(tmp_path, monkeypatch):
    """The batteries still digest through their own columns, but the
    radio books every burst over ``devices``: restore refuses the file
    instead of failing at the first delivery."""
    path = tmp_path / "deviceless.ckpt"
    save_deviceless_checkpoint(after_wave_runtime(), path, monkeypatch)
    for restore in (load_checkpoint, SnapshotRuntime.restore):
        with pytest.raises(CheckpointIntegrityError) as refused:
            restore(path)
        message = str(refused.value)
        assert str(path) in message
        assert "'Radio' object has no attribute 'devices'" in message


def test_a_device_state_without_the_change_count_restores_and_runs_on(tmp_path, monkeypatch):
    runtime = after_wave_runtime()
    path = tmp_path / "countless.ckpt"
    save_countless_checkpoint(runtime, path, monkeypatch)
    end = runtime.now + 40.0
    runtime.advance_to(end)
    for restore in (load_checkpoint, SnapshotRuntime.restore):
        restored = restore(path)
        assert "changes" not in vars(restored.radio.devices)
        key = restored.state_key()
        assert key[-1] == 0
        restored.radio.node(2).restore()
        restored.radio.node(2).fail()
        assert restored.state_key() > key
        restored.advance_to(end)
        assert restored.state_digest() == runtime.state_digest()


def test_a_parent_checkpoint_is_refused_by_name(tmp_path, monkeypatch):
    """A checkpoint whose simulator keeps its time in a
    ``SimulationClock``: the module is gone, so the payload cannot be
    rebuilt, and the file is refused as an integrity error naming it
    instead of failing at its first event."""
    path = tmp_path / "parent.ckpt"
    save_parent_checkpoint(after_wave_runtime(), path, monkeypatch)
    for restore in (load_checkpoint, SnapshotRuntime.restore, Simulator.restore):
        with pytest.raises(CheckpointIntegrityError) as refused:
            restore(path)
        message = str(refused.value)
        assert str(path) in message
        assert "does not match this code's classes" in message
        assert PARENT_CLOCK_MODULE in message


@pytest.mark.parametrize("loader_sees", ["this-code", "parent-clock", "parent-router"])
def test_a_parent_checkpoint_with_pending_samples_is_refused_by_name(
    tmp_path, monkeypatch, loader_sees
):
    """Samples a parent checkpoint froze in the router's pending columns
    would be dropped by this code, which applies every sample inside
    its delivery: the file is refused, whichever of its parts the
    loader can rebuild — even with the clock module importable, or
    with a simulator this code reads (only the router's samples and
    the header's ``observations`` digest left from the parent)."""
    runtime = after_wave_runtime()
    samples = [(1, 0, 0.5, 0.75), (3, 0, 0.25, 0.75)]
    path = tmp_path / "pending.ckpt"
    save_parent_checkpoint(
        runtime, path, monkeypatch, samples, clock=loader_sees != "parent-router"
    )
    with monkeypatch.context() as patch:
        if loader_sees == "parent-clock":
            patch.setitem(sys.modules, PARENT_CLOCK_MODULE, parent_clock_module())
        with pytest.raises(CheckpointIntegrityError) as refused:
            load_checkpoint(path)
    message = str(refused.value)
    assert str(path) in message
    if loader_sees == "parent-router":
        assert refused.value.components == ["observations"]
    else:
        assert "does not match this code's classes" in message
