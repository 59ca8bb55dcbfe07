"""Seeded randomized fault-schedule stress tests.

Each schedule trains, elects, runs §5.1 maintenance through a
randomized barrage of crashes, revivals, battery spikes, partitions
(and, in lossy configurations, a link-loss burst), then asserts every
protocol invariant at quiescence — including Table 2's six-message
bound for the election epoch.

The matrix size scales with ``REPRO_CHAOS_SEEDS`` (seeds per
configuration; default 50, so the default matrix is 50 × 4 = 200
schedules).  CI runs a reduced matrix; set it higher for soak runs.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import ChaosConfig, run_chaos_schedule

N_SEEDS = int(os.environ.get("REPRO_CHAOS_SEEDS", "50"))

#: lossy/lossless × both cache policies (the acceptance matrix).
CONFIGURATIONS = [
    pytest.param(0.0, "model-aware", id="lossless-model-aware"),
    pytest.param(0.0, "round-robin", id="lossless-round-robin"),
    pytest.param(0.4, "model-aware", id="lossy-model-aware"),
    pytest.param(0.4, "round-robin", id="lossy-round-robin"),
]


@pytest.mark.chaos
@pytest.mark.parametrize("loss_burst,cache_policy", CONFIGURATIONS)
def test_chaos_matrix_upholds_all_invariants(loss_burst, cache_policy):
    """Hundreds of randomized fault schedules, zero violations allowed."""
    for seed in range(N_SEEDS):
        config = ChaosConfig(
            seed=seed, loss_burst=loss_burst, cache_policy=cache_policy
        )
        # run_chaos_schedule raises InvariantError (with the offending
        # schedule's seed in ``config``) on any violation.
        result = run_chaos_schedule(config)
        assert result.ok, f"seed {seed}: {result.violations}"
        # Every schedule must actually exercise the checks, including
        # the Table 2 message bound for its election epoch.
        assert result.checks_run == 2
        assert result.bound_checks_run == 1


@pytest.mark.chaos
def test_chaos_schedules_actually_inject_faults():
    """Anti-vacuity: across the seed range, schedules must crash nodes
    and force §5.1 repairs — a matrix that never perturbs the network
    would pass the invariants trivially."""
    crashes = revivals = reelections = 0
    for seed in range(min(N_SEEDS, 10)):
        result = run_chaos_schedule(ChaosConfig(seed=seed))
        crashes += result.crashes
        revivals += result.revivals
        reelections += result.reelections
    assert crashes > 0
    assert revivals > 0
    assert reelections > 0


def test_single_chaos_schedule_smoke():
    """One lossless and one lossy schedule run in the default suite even
    when the chaos marker is deselected."""
    clean = run_chaos_schedule(ChaosConfig(seed=0))
    assert clean.ok and clean.final_coverage > 0.0
    lossy = run_chaos_schedule(ChaosConfig(seed=0, loss_burst=0.4))
    assert lossy.ok
    # The lossy schedule shares the plan's crash events with the clean
    # one (same seed) plus the burst.
    assert len(lossy.plan) == len(clean.plan) + 1


# ---------------------------------------------------------------------------
# Sharded-engine chaos slice
# ---------------------------------------------------------------------------
#
# The differential counterpart of the matrix above: a seeded fault
# schedule — including a network partition whose group straddles the
# shard cut — rides on the 2-shard engine with the invariant checker
# attached, and the resulting state digest must still be byte-equal to
# the single-process run of the identical schedule.

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.series import Dataset
from repro.experiments.harness import make_cache_factory
from repro.faults.chaos import random_fault_plan
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan, NetworkPartition
from repro.network.topology import Topology
from repro.simulation.sharded import ShardedRuntime

SHARD_CHAOS_SEEDS = int(os.environ.get("REPRO_SHARD_CHAOS_SEEDS", "3"))


def _chaos_inputs(config):
    """The ``build_chaos_runtime`` deployment's inputs."""
    n = config.n_nodes
    base = np.linspace(0.0, 30.0, 400)
    dataset = Dataset(np.stack([base + 0.3 * i for i in range(n)]))
    topology = Topology([(0.08 * i, 0.0) for i in range(n)], ranges=2.0)
    protocol = ProtocolConfig(
        threshold=config.threshold,
        heartbeat_period=config.heartbeat_period,
        rotation_probability=config.rotation_probability,
        member_expiry_periods=config.member_expiry_periods,
    )
    kwargs = dict(
        seed=config.seed,
        cache_factory=make_cache_factory(config.cache_policy, 2048),
        battery_capacity=config.battery_capacity,
    )
    return topology, dataset, protocol, kwargs


def _straddling_plan(config, partition):
    """A seeded schedule plus a partition crossing the shard cut."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xFA11]))
    events = list(random_fault_plan(config, rng))
    cut_group = frozenset(
        list(partition.shard_members(0))[-2:] + list(partition.shard_members(1))[:2]
    )
    owners = {partition.owner(i) for i in cut_group}
    assert owners == {0, 1}, "test premise: the group must straddle the cut"
    events.append(
        NetworkPartition(
            time=0.5 * config.heartbeat_period,
            duration=1.5 * config.heartbeat_period,
            group=cut_group,
        )
    )
    return FaultPlan(tuple(events))


def _ride_schedule(runtime, injector_apply, stop, config, plan):
    """Train → elect → check → maintain → faults → drain → check."""
    period = config.heartbeat_period
    checker = InvariantChecker(
        runtime,
        message_bound=config.message_bound,
        strict_claims=config.lossless,
    )
    try:
        runtime.train(duration=6.0)
        runtime.run_election()
        checker.check()
        runtime.start_maintenance()
        quiet_at = injector_apply(plan, runtime.now + period)
        runtime.advance_to(quiet_at + config.recovery_periods * period)
        stop()
        runtime.advance_to(runtime.now + 1.5 * period)
        checker.check()
        assert checker.checks_run == 2
        assert checker.bound_checks_run == 1
        assert not checker.violations
    finally:
        checker.close()


@pytest.mark.shard
def test_two_shard_chaos_slice_matches_reference():
    """Faults on the 2-shard engine: invariants hold on both engines and
    the final digests agree, partition-across-the-cut included."""
    for seed in range(SHARD_CHAOS_SEEDS):
        config = ChaosConfig(seed=seed)
        topology, dataset, protocol, kwargs = _chaos_inputs(config)

        sharded = ShardedRuntime(
            topology, dataset, protocol, n_shards=2, **kwargs
        )
        plan = _straddling_plan(config, sharded.partition)
        _ride_schedule(
            sharded,
            lambda p, at: sharded.apply_fault_plan(p, at=at),
            sharded.stop_maintenance,
            config,
            plan,
        )

        reference = SnapshotRuntime(topology, dataset, protocol, **kwargs)
        injector = FaultInjector(reference)
        _ride_schedule(
            reference,
            lambda p, at: injector.apply(p, at=at),
            reference.maintenance.stop,
            config,
            plan,
        )

        assert sharded.state_digest() == reference.state_digest(), (
            f"seed {seed}: sharded chaos trajectory diverged"
        )
        assert injector.crashes_applied > 0 or len(plan.crashes()) == 0
