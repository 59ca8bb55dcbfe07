"""Worker lifecycle regression tests for the process-mode engine.

The failure these pin down: an exception inside one shard worker must
surface in the controller as a single clean :class:`ShardWorkerError`
(carrying the shard id and the worker traceback) and tear the whole
fleet down — not deadlock the pytest process on a pipe that will never
be written.  Small deployment, runs in tier-1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.network.topology import uniform_random_topology
from repro.simulation.sharded import ShardedRuntime, ShardWorkerError

N_NODES = 12
SEED = 11


def _build(mode="process"):
    rng = np.random.default_rng(SEED)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=N_NODES, n_classes=2, length=100), rng
    )
    topology = uniform_random_topology(
        N_NODES, 0.5, np.random.default_rng(SEED + 1)
    )
    config = ProtocolConfig(threshold=2.0)
    return ShardedRuntime(
        topology, dataset, config, seed=SEED, n_shards=2, mode=mode
    )


def test_worker_exception_propagates_as_single_clean_error():
    """A crash in shard 1 raises once, names the shard, keeps the trace."""
    with _build() as runtime:
        with pytest.raises(ShardWorkerError) as excinfo:
            runtime._handles[1].call("raise_error", "boom")
        assert excinfo.value.shard == 1
        assert "boom" in excinfo.value.detail
        assert "RuntimeError" in excinfo.value.detail


def test_lockstep_error_tears_the_fleet_down():
    """An error during a fan-out op closes every worker — no hang, and
    later closes are no-ops."""
    runtime = _build()
    with pytest.raises(ShardWorkerError):
        runtime._lockstep("raise_error", "poisoned")
    for handle in runtime._handles:
        assert not handle.process.is_alive()
    runtime.close()  # idempotent after the error-path teardown


def test_context_manager_reaps_worker_processes():
    """Normal exit joins every forked worker."""
    with _build() as runtime:
        runtime.train(duration=2.0)
        processes = [handle.process for handle in runtime._handles]
        assert all(p.is_alive() for p in processes)
    assert all(not p.is_alive() for p in processes)


def test_inline_mode_has_no_processes():
    """Inline handles close without touching multiprocessing at all."""
    runtime = _build(mode="inline")
    runtime.train(duration=2.0)
    runtime.close()
    runtime.close()
