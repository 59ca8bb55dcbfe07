"""Seeded randomized fault-schedule stress tests.

Each schedule trains, elects, runs §5.1 maintenance through a
randomized barrage of crashes, revivals, battery spikes, partitions
(and, in lossy configurations, a link-loss burst), then asserts every
protocol invariant at quiescence — including Table 2's six-message
bound for the election epoch.

The matrix size scales with ``REPRO_CHAOS_SEEDS`` (seeds per
configuration; default 50, so the default matrix is 50 × 4 = 200
schedules).  CI runs a reduced matrix; set it higher for longer runs.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import ChaosConfig, ChaosRun

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
        # A schedule raises InvariantError (with the offending seed in
        # ``config``) on any violation.
        run = ChaosRun(config)
        run.start()
        result = run.finish()
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
        run = ChaosRun(ChaosConfig(seed=seed))
        run.start()
        result = run.finish()
        crashes += result.crashes
        revivals += result.revivals
        reelections += result.reelections
    assert crashes > 0
    assert revivals > 0
    assert reelections > 0


def test_single_chaos_schedule_smoke():
    """One lossless and one lossy schedule run in the default suite even
    when the chaos marker is deselected."""
    clean_run = ChaosRun(ChaosConfig(seed=0))
    clean_run.start()
    clean = clean_run.finish()
    assert clean.ok and clean.final_coverage > 0.0
    lossy_run = ChaosRun(ChaosConfig(seed=0, loss_burst=0.4))
    lossy_run.start()
    lossy = lossy_run.finish()
    assert lossy.ok
    # The lossy schedule shares the plan's crash events with the clean
    # one (same seed) plus the burst.
    assert len(lossy.plan) == len(clean.plan) + 1

