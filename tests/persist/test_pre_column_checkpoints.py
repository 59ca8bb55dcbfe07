"""Checkpoints written before energy and delivery counts were columns.

Such a pickle holds each battery's ``_charge`` and ``_spent``, the
ledger cells and delivery counts as plain ``Counter`` objects shared
with their registry metrics, and the observation router's batch as
``[node, neighbor, own, value]`` lists, and the runtime still carries
state of the since-retired fleet mode (see ``tests/persist/legacy.py``).
Whichever of the objects that share state is unpickled first, the
restored run digests as the saved one did, holds one set of columns
again, and resumes on the saved run's trajectory — here from the
middle of a delivery burst, with samples still queued.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import SnapshotRuntime
from repro.energy.costs import EnergyCostModel
from repro.persist import checkpoint as checkpoint_module
from repro.persist import save_checkpoint
from tests.conftest import make_runtime
from tests.persist.legacy import RETIRED_RUNTIME_STATE, legacy_dumps, legacy_roundtrip

#: Roots that make a different object of the shared state unpickle first.
ORDERS = {
    "runtime": lambda runtime: runtime,
    "device-first": lambda runtime: (runtime.radio.node(0), runtime),
    "registry-first": lambda runtime: (runtime.simulator.metrics, runtime),
    "ledger-first": lambda runtime: (runtime.ledger, runtime.stats, runtime),
    "router-first": lambda runtime: (runtime.observation_router, runtime),
}


def mid_burst_runtime() -> SnapshotRuntime:
    """A trained, elected, maintained run with a failed node, stopped
    inside a training tick's delivery bursts with samples queued."""
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
    while not runtime.observation_router.pending:
        assert simulator.step()
    return runtime


def assert_one_set_of_columns(runtime: SnapshotRuntime) -> None:
    radio = runtime.radio
    registry = runtime.simulator.metrics
    assert registry.metric("energy.draw") is runtime.ledger._cells
    assert registry.metric("net.messages.delivered") is runtime.stats.delivered
    for node_id, device in radio.nodes.items():
        assert device.battery._state is radio.devices and device._slot == node_id
    assert runtime.observation_router.nodes is runtime.nodes


@pytest.mark.parametrize("order", ORDERS)
def test_pre_column_pickle_resumes_on_the_same_trajectory(order):
    runtime = mid_burst_runtime()
    before = runtime.state_digest()
    assert "observations" in before.components
    restored = legacy_roundtrip(ORDERS[order](runtime), "energy")
    if isinstance(restored, tuple):
        restored = restored[-1]
    assert restored.state_digest() == before
    assert_one_set_of_columns(restored)

    end = runtime.now + 40.0
    runtime.advance_to(end)
    restored.advance_to(end)
    assert restored.state_digest() == runtime.state_digest()
    assert restored.ledger.total() == runtime.ledger.total()


def test_pre_column_checkpoint_file_restores_verified(tmp_path, monkeypatch):
    """Through the checkpoint file format, with its digest check."""
    runtime = mid_burst_runtime()
    path = tmp_path / "pre-column.ckpt"
    pickled = legacy_dumps(runtime, "energy")
    assert all(name.encode() in pickled for name in RETIRED_RUNTIME_STATE)

    with monkeypatch.context() as patch:
        patch.setattr(
            checkpoint_module.pickle,
            "dumps",
            lambda obj, protocol: legacy_dumps(obj, "energy"),
        )
        saved = save_checkpoint(runtime, path)
    restored = SnapshotRuntime.restore(path)  # verifies every component
    assert restored.state_digest() == saved
    assert_one_set_of_columns(restored)
    end = runtime.now + 40.0
    runtime.advance_to(end)
    restored.advance_to(end)
    assert restored.state_digest() == runtime.state_digest()

