"""Randomized fault-schedule stress runs ("chaos testing").

One chaos schedule is a complete miniature deployment: train, elect,
start §5.1 maintenance, arm a randomized :class:`FaultPlan` (crashes,
revivals, battery spikes, partitions, and — for lossy schedules — a
link-loss burst spanning the fault window), let the network ride the
faults out, then stop maintenance, drain in-flight exchanges and run
the :class:`~repro.faults.invariants.InvariantChecker` at quiescence.

The timing discipline matters and is the reason the checks are sound:

* The global election runs *before* the plan is armed, so the Table 2
  six-message bound is checked over a fault-free epoch window — the
  bound genuinely cannot hold while Rule-4 retries fight message loss.
* Every fault effect ends by the plan's ``end_time``; the run then
  continues for ``recovery_periods`` heartbeat periods of clean
  maintenance, which is what §5.1 needs to detect dead representatives
  (one heartbeat timeout), fold orphans back in (one lone-active
  invitation), and expire stale claims (``member_expiry_periods``).
* Maintenance is stopped and the simulation drained one and a half
  further periods so reply windows, resign cooldowns and heartbeat
  timeouts all land before the structural check.

Strict back-claims are asserted on lossless schedules; under a loss
burst the final check relaxes to liveness-only pointers, since a lost
Accept legitimately leaves a one-sided edge until the next repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.series import Dataset
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.faults.plan import (
    BatteryDrain,
    FaultEvent,
    FaultPlan,
    LinkLossBurst,
    NetworkPartition,
    NodeCrash,
)
from repro.network.topology import Topology

__all__ = [
    "ChaosConfig",
    "ChaosResult",
    "ChaosRun",
    "build_chaos_runtime",
    "random_fault_plan",
    "run_chaos_schedule",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one randomized fault schedule."""

    seed: int
    n_nodes: int = 10
    n_faults: int = 6
    loss_burst: float = 0.0
    cache_policy: str = "model-aware"
    threshold: float = 5.0
    heartbeat_period: float = 8.0
    rotation_probability: float = 0.1
    member_expiry_periods: float = 2.0
    battery_capacity: Optional[float] = 4000.0
    message_bound: int = 6
    fault_window_periods: float = 3.0
    recovery_periods: float = 4.0
    #: Keep full trace records (span timelines) for post-run assertions.
    keep_trace_records: bool = False
    #: Route overheard observations through the batched round path
    #: (``core.round_batch``); ``False`` pins the scalar golden
    #: reference for differential schedules.
    batched_rounds: bool = True

    def __post_init__(self) -> None:
        if self.n_nodes < 4:
            raise ValueError(f"chaos needs at least 4 nodes, got {self.n_nodes}")
        if not 0.0 <= self.loss_burst < 1.0:
            raise ValueError(f"loss_burst must be in [0, 1), got {self.loss_burst}")

    @property
    def lossless(self) -> bool:
        return self.loss_burst == 0.0


@dataclass
class ChaosResult:
    """Outcome of one chaos schedule."""

    config: ChaosConfig
    plan: FaultPlan
    violations: list[InvariantViolation] = field(default_factory=list)
    checks_run: int = 0
    bound_checks_run: int = 0
    crashes: int = 0
    revivals: int = 0
    reelections: int = 0
    final_coverage: float = 0.0
    alive_fraction: float = 1.0
    #: The finished runtime, for observability assertions (span balance,
    #: report round-trips) on top of the structural checks.
    runtime: Optional[SnapshotRuntime] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the schedule completed with zero invariant violations."""
        return not self.violations

    def report(self, meta: Optional[dict] = None):
        """The schedule's :class:`~repro.obs.report.RunReport`."""
        from repro.obs.report import RunReport

        if self.runtime is None:
            raise RuntimeError("schedule did not complete; no runtime captured")
        return RunReport.capture(self.runtime, meta=meta)


def build_chaos_runtime(config: ChaosConfig) -> SnapshotRuntime:
    """A small all-in-range network with strongly correlated ramps.

    Correlated data guarantees representability (any node can model any
    other within the threshold), so structural churn comes from the
    injected faults, not from modelling noise — the same construction
    the failure-injection tests use.
    """
    # Imported here, not at module top: the experiments package imports
    # this module (the coverage-under-failure sweep), so a module-level
    # import of the harness would be circular.
    from repro.experiments.harness import make_cache_factory

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
    return SnapshotRuntime(
        topology,
        dataset,
        protocol,
        seed=config.seed,
        cache_factory=make_cache_factory(config.cache_policy, 2048),
        battery_capacity=config.battery_capacity,
        keep_trace_records=config.keep_trace_records,
        batched_rounds=config.batched_rounds,
    )


def random_fault_plan(
    config: ChaosConfig, rng: np.random.Generator
) -> FaultPlan:
    """Draw a randomized fault schedule for ``config``'s network.

    At most half the nodes may die permanently, so the network always
    retains a functioning majority to re-form the structure around.
    """
    period = config.heartbeat_period
    window = config.fault_window_periods * period
    node_ids = list(range(config.n_nodes))
    permanent_budget = config.n_nodes // 2
    events: list[FaultEvent] = []
    for _ in range(config.n_faults):
        t = float(rng.uniform(0.0, window))
        kind = rng.choice(["crash", "blip", "drain", "partition"])
        if kind == "crash" and permanent_budget > 0:
            permanent_budget -= 1
            events.append(
                NodeCrash(time=t, node_id=int(rng.choice(node_ids)))
            )
        elif kind in ("crash", "blip"):
            events.append(
                NodeCrash(
                    time=t,
                    node_id=int(rng.choice(node_ids)),
                    down_for=float(rng.uniform(1.0, 2.5) * period),
                )
            )
        elif kind == "drain":
            events.append(
                BatteryDrain(
                    time=t,
                    node_id=int(rng.choice(node_ids)),
                    fraction=float(rng.uniform(0.3, 0.6)),
                )
            )
        else:
            size = int(rng.integers(2, max(3, config.n_nodes // 2) + 1))
            group = frozenset(
                int(i) for i in rng.choice(node_ids, size=size, replace=False)
            )
            events.append(
                NetworkPartition(
                    time=t,
                    duration=float(rng.uniform(1.0, 2.0) * period),
                    group=group,
                )
            )
    if config.loss_burst > 0.0:
        # One burst spanning the whole fault window, so every injected
        # fault plays out over a degraded radio.
        events.append(
            LinkLossBurst(
                time=0.0,
                duration=window + period,
                loss=config.loss_burst,
            )
        )
    return FaultPlan(tuple(events))


class ChaosRun:
    """A chaos schedule that can be frozen mid-fault-plan and resumed.

    Executes the exact same operation sequence as the original
    monolithic driver — build, train, elect, quiescence check, start
    maintenance, arm the plan, ride it out, drain, final check — but
    split at checkpointable seams.  The whole object (runtime, armed
    injector with its loss overlay, invariant checker with its live
    trace subscriptions, plan, progress markers) is one picklable graph,
    so ``save_checkpoint(chaos_run, path)`` while faults are in flight
    and ``load_checkpoint(path)`` resumes on the identical trajectory::

        run = ChaosRun(config)
        run.start()                      # train → elect → check → arm plan
        run.advance_to(mid_plan_time)    # faults firing...
        save_checkpoint(run, path)       # freeze mid-fault-plan
        resumed = load_checkpoint(path)
        result = resumed.finish()        # == the uninterrupted result
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self.runtime = build_chaos_runtime(config)
        self.injector = FaultInjector(self.runtime)
        self.checker = InvariantChecker(
            self.runtime,
            message_bound=config.message_bound,
            strict_claims=config.lossless,
        )
        plan_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 0xFA11])
        )
        self.plan = random_fault_plan(config, plan_rng)
        #: Absolute time of the plan's last effect; set by :meth:`start`.
        self.quiet_at: Optional[float] = None
        self.finished = False

    def start(self) -> float:
        """Train, elect, check post-election quiescence, arm the plan.

        Returns ``quiet_at`` — the earliest time every fault effect has
        ended.  Any instant between now and the recovery window's end is
        a valid freeze point.
        """
        runtime = self.runtime
        runtime.train(duration=6.0)
        runtime.run_election()
        # Post-election quiescence: the structure must already be sound
        # before any fault fires (also exercises the Table 2 bound
        # check, which was scheduled during the election window).
        self.checker.check()

        runtime.start_maintenance()
        self.quiet_at = self.injector.apply(
            self.plan, at=runtime.now + self.config.heartbeat_period
        )
        return self.quiet_at

    def advance_to(self, time: float) -> None:
        """Drive the simulation to absolute ``time`` (faults fire as armed)."""
        self.runtime.advance_to(time)

    def finish(self) -> ChaosResult:
        """Ride out the plan, drain, run the final check, build the result."""
        if self.quiet_at is None:
            raise RuntimeError("chaos run not started; call start() first")
        if self.finished:
            raise RuntimeError("chaos run already finished")
        config = self.config
        runtime = self.runtime
        period = config.heartbeat_period
        try:
            # Ride the faults out, then give §5.1 maintenance its recovery
            # window: heartbeat-timeout detection, lone-active re-invites
            # and stale-claim expiry all need whole periods to act.
            runtime.advance_to(self.quiet_at + config.recovery_periods * period)
            runtime.maintenance.stop()
            # Drain in-flight reply windows / resign cooldowns / timeouts.
            runtime.advance_to(runtime.now + 1.5 * period)
            self.checker.check()
        finally:
            self.checker.close()
        self.finished = True

        alive = [node for node in runtime.nodes.values() if node.alive]
        covered: set[int] = set()
        for node in alive:
            covered |= node.covered_nodes()
        alive_ids = {node.node_id for node in alive}
        return ChaosResult(
            config=config,
            plan=self.plan,
            violations=list(self.checker.violations),
            checks_run=self.checker.checks_run,
            bound_checks_run=self.checker.bound_checks_run,
            crashes=self.injector.crashes_applied,
            revivals=self.injector.revivals_applied,
            reelections=runtime.structure_version()[1],
            final_coverage=(
                len(covered & alive_ids) / len(alive_ids) if alive_ids else 0.0
            ),
            alive_fraction=len(alive) / config.n_nodes,
            runtime=runtime,
        )

    def digest_extra(self) -> dict:
        """Chaos-level state folded into :func:`~repro.persist.state_digest`."""
        return {
            "chaos": (
                self.config,
                self.plan,
                self.quiet_at,
                self.finished,
                self.injector.crashes_applied,
                self.injector.revivals_applied,
                self.checker.checks_run,
                self.checker.bound_checks_run,
                tuple(str(v) for v in self.checker.violations),
            )
        }


def run_chaos_schedule(config: ChaosConfig) -> ChaosResult:
    """Run one full train → elect → faults → quiesce → check schedule.

    Raises :class:`~repro.faults.invariants.InvariantError` on the
    first violated invariant (the checker's default); the returned
    result carries counters for aggregation when none is violated.
    """
    run = ChaosRun(config)
    try:
        run.start()
        return run.finish()
    finally:
        # finish() closes the checker on its own paths; this covers a
        # start() that raised (e.g. the post-election quiescence check).
        run.checker.close()
