"""Differential test: the O(1) structure version against its definition.

``SnapshotRuntime.structure_version()`` and ``current_epoch`` read
running totals the protocol keeps at its writes.  Their definition is
the brute-force formula below: the largest epoch of the coordinator and
every node, and the sum of every node's re-elections.  A lossy chaos
schedule — crashes, revivals, partitions, battery drains, §5.1
re-elections and a global re-election in the middle of the faults —
checks the two agree after every processed event, before and after a
checkpoint → restore.
"""

from __future__ import annotations

import numpy as np

from repro.core.runtime import SnapshotRuntime
from repro.faults.chaos import ChaosConfig, build_chaos_runtime, random_fault_plan
from repro.faults.injector import FaultInjector

CONFIG = ChaosConfig(seed=3, n_nodes=12, n_faults=8, loss_burst=0.3)


def brute_force(runtime: SnapshotRuntime) -> tuple[int, int]:
    """The definition: a sweep over the coordinator and every node."""
    nodes = runtime.nodes.values()
    epoch = max([runtime.coordinator.epoch] + [node.epoch for node in nodes])
    return epoch, sum(node.reelections for node in nodes)


def check_every_event(runtime: SnapshotRuntime) -> list[int]:
    """Assert the version after each event; returns a one-cell counter."""
    checked = [0]
    step = runtime.simulator.step

    def checked_step() -> bool:
        fired = step()
        expected = brute_force(runtime)
        assert runtime.structure_version() == expected, runtime.now
        assert runtime.current_epoch == expected[0], runtime.now
        checked[0] += 1
        return fired

    runtime.simulator.step = checked_step
    return checked


def test_structure_version_matches_brute_force(tmp_path):
    runtime = build_chaos_runtime(CONFIG)
    injector = FaultInjector(runtime)
    plan = random_fault_plan(CONFIG, np.random.default_rng(CONFIG.seed))
    checked = check_every_event(runtime)
    period = CONFIG.heartbeat_period

    runtime.train(duration=6.0)
    runtime.run_election()
    runtime.start_maintenance()
    injector.apply(plan, at=runtime.now + period)
    runtime.advance_to(runtime.now + 2 * period)
    # A global re-election while faults are live.  The epoch moves when
    # the round is scheduled, before any of its events fires.
    epoch_before = runtime.current_epoch
    runtime.coordinator.start_round()
    assert runtime.structure_version() == brute_force(runtime)
    assert runtime.current_epoch == epoch_before + 1
    runtime.advance_to(runtime.now + 4 * period)
    assert injector.crashes_applied > 0
    assert injector.revivals_applied > 0
    assert runtime.structure_version()[1] > 0

    # The checkpoint carries the totals; the restored run keeps them
    # in step with the formula as its own faults and repairs play out.
    del runtime.simulator.step  # the wrapper is a closure: unpicklable
    path = tmp_path / "mid-chaos.ckpt"
    runtime.checkpoint(path)
    restored = SnapshotRuntime.restore(path)
    assert restored.structure_version() == brute_force(restored)
    assert restored.structure_version() == runtime.structure_version()
    resumed = check_every_event(restored)
    reelections = restored.structure_version()[1]
    restored.advance_to(restored.now + 4 * period)
    restored.run_election()
    restored.advance_to(restored.now + 2 * period)
    assert restored.structure_version()[1] > reelections
    assert checked[0] > 300 and resumed[0] > 100
