"""Coverage under failure: the §5.1 robustness claim as a sweep.

The paper argues the maintenance protocol keeps the snapshot usable
while nodes die (§5.1, Figures 13–14), but never quantifies *query
coverage* against the death rate directly.  This experiment does: every
node draws a geometric death time with per-maintenance-period
probability ``death_rate`` (permanent crashes injected through the
:mod:`repro.faults` subsystem), maintenance runs for a fixed horizon,
and after every completed round the surviving network's snapshot
coverage is sampled.  The sweep reports, per death rate:

* **coverage** — mean fraction of *alive* nodes covered by some alive
  representative, averaged over rounds and repetitions (how much of
  the living network a snapshot query can still answer for);
* **reelections** — mean §5.1 re-elections per maintenance round (the
  repair work the churn forces).

Run it from the CLI with ``python -m repro.cli experiment failure``.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.experiments.harness import Series, derive_seeds, parallel_map
from repro.faults.chaos import ChaosConfig, build_chaos_runtime
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash

__all__ = ["coverage_under_failure", "DEFAULT_DEATH_RATES"]

DEFAULT_DEATH_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)

#: Maintenance rounds each repetition runs after arming the crash plan.
_HORIZON_PERIODS = 12
#: Network size per repetition (small enough for a dense sweep).
_N_NODES = 12


def _death_plan(
    death_rate: float, n_nodes: int, period: float, rng: np.random.Generator
) -> FaultPlan:
    """Permanent crashes at geometric per-period death times.

    A node whose geometric draw lands beyond the horizon never dies —
    at rate 0 the plan is empty and the sweep's baseline is fault-free.
    """
    if death_rate <= 0.0:
        return FaultPlan()
    crashes = []
    for node_id in range(n_nodes):
        periods_survived = rng.geometric(death_rate)
        if periods_survived <= _HORIZON_PERIODS:
            # Spread deaths inside their period so they interleave with
            # the staggered heartbeats rather than landing on boundaries.
            offset = float(rng.uniform(0.0, period))
            crashes.append(
                NodeCrash(
                    time=(periods_survived - 1) * period + offset, node_id=node_id
                )
            )
    return FaultPlan(tuple(crashes))


def _coverage_and_repairs(death_rate: float, seed: int) -> tuple[float, float]:
    """One repetition: (mean per-round coverage, re-elections per round)."""
    config = ChaosConfig(
        seed=seed,
        n_nodes=_N_NODES,
        n_faults=0,
        rotation_probability=0.0,
        battery_capacity=None,
    )
    runtime = build_chaos_runtime(config)
    injector = FaultInjector(runtime)
    runtime.train(duration=6.0)
    runtime.run_election()

    coverages: list[float] = []

    def sample_coverage(_record) -> None:
        alive = [node for node in runtime.nodes.values() if node.alive]
        if not alive:
            return
        covered: set[int] = set()
        for node in alive:
            covered |= node.covered_nodes()
        alive_ids = {node.node_id for node in alive}
        coverages.append(len(covered & alive_ids) / len(alive_ids))

    subscription = runtime.simulator.trace.subscribe(
        "maintenance.round", sample_coverage
    )
    try:
        runtime.start_maintenance()
        period = config.heartbeat_period
        plan_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDEAD]))
        plan = _death_plan(death_rate, _N_NODES, period, plan_rng)
        injector.apply(plan, at=runtime.now)
        runtime.advance_to(runtime.now + _HORIZON_PERIODS * period)
        runtime.maintenance.stop()
    finally:
        subscription.cancel()

    rounds = max(1, runtime.maintenance.rounds_completed)
    reelections = runtime.structure_version()[1]
    mean_coverage = float(np.mean(coverages)) if coverages else 0.0
    return mean_coverage, reelections / rounds


def coverage_under_failure(
    death_rates: Sequence[float] = DEFAULT_DEATH_RATES,
    repetitions: int = 5,
    base_seed: int = 51,
) -> dict[str, Series]:
    """Sweep the per-period death rate; report coverage and repair cost.

    Expected shape: coverage of the *alive* population stays near 1.0
    well past death rates that halve the network — the §5.1 heartbeat
    timeout re-elects around every dead representative within one
    period — while re-elections per round grow with the death rate.
    """
    coverage = Series("coverage", "death rate / period", "mean alive coverage")
    reelections = Series(
        "reelections", "death rate / period", "re-elections per round"
    )
    if repetitions <= 0:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    for rate in death_rates:
        rate_seed = base_seed * 1_000 + int(rate * 1_000)
        seeds = derive_seeds(rate_seed, repetitions)
        samples = parallel_map(partial(_coverage_and_repairs, rate), seeds)
        coverage.add(rate, [covered for covered, __ in samples])
        reelections.add(rate, [repairs for __, repairs in samples])
    return {"coverage": coverage, "reelections": reelections}
