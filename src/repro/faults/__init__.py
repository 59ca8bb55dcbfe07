"""Fault injection and protocol invariant checking.

The paper's central robustness claim — that the snapshot structure is
"self-correcting" under node death, message loss and topology change
(§1, §5.1) — is exercised here directly: :mod:`repro.faults.plan`
declares fault schedules, :mod:`repro.faults.injector` arms them
against a running simulation, :mod:`repro.faults.invariants` asserts
the protocol's safety properties at quiescence, and
:mod:`repro.faults.chaos` ties them into randomized stress schedules.
"""

from repro.faults.chaos import (
    ChaosConfig,
    ChaosResult,
    ChaosRun,
    build_chaos_runtime,
    random_fault_plan,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker, InvariantError, InvariantViolation
from repro.faults.plan import (
    BatteryDrain,
    FaultEvent,
    FaultPlan,
    LinkLossBurst,
    NetworkPartition,
    NodeCrash,
)

__all__ = [
    "BatteryDrain",
    "ChaosConfig",
    "ChaosResult",
    "ChaosRun",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InvariantChecker",
    "InvariantError",
    "InvariantViolation",
    "LinkLossBurst",
    "NetworkPartition",
    "NodeCrash",
    "build_chaos_runtime",
    "random_fault_plan",
]
