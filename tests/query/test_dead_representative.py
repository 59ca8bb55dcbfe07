"""Query execution when a representative is dead.

A snapshot query routed through a cluster whose representative has
failed must *degrade* — lower coverage, the dead node and its orphaned
members absent from the reports — never crash the executor, and never
paper over the hole by reporting the dead representative's stale model
estimates as if they were live coverage.  (§6: the snapshot is a lossy
summary; a failed representative's members are unreachable through it
until §5.1 maintenance re-homes them.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.core.status import NodeMode
from repro.data.series import Dataset
from repro.faults.injector import FaultInjector
from repro.network.topology import Topology
from repro.query.ast import Query
from repro.query.executor import QueryExecutor
from repro.query.spatial import Everywhere


def snapshot_runtime(n: int = 6, seed: int = 6) -> SnapshotRuntime:
    base = np.linspace(0.0, 40.0, 600)
    values = np.stack([base + 0.5 * i for i in range(n)])
    topology = Topology([(0.15 * i, 0.5) for i in range(n)], ranges=2.0)
    runtime = SnapshotRuntime(
        topology,
        Dataset(values),
        ProtocolConfig(threshold=5.0, heartbeat_period=20.0),
        seed=seed,
        battery_capacity=100.0,
    )
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


def representative_with_members(runtime: SnapshotRuntime) -> tuple[int, tuple[int, ...]]:
    view = runtime.snapshot()
    rep, members = max(view.claims.items(), key=lambda item: len(item[1]))
    assert members, "fixture must elect a representative with members"
    return rep, members


class TestSnapshotQueryWithDeadRepresentative:
    def test_degrades_instead_of_crashing(self):
        runtime = snapshot_runtime()
        rep, members = representative_with_members(runtime)
        FaultInjector(runtime).crash(rep)
        executor = QueryExecutor(runtime)
        result = executor.execute(
            Query(region=Everywhere(), use_snapshot=True), charge_energy=False
        )
        assert result.coverage() < 1.0
        assert rep in result.matching_all
        assert rep not in result.matching_alive

    def test_dead_representative_never_reports(self):
        """The dead node must not appear as an origin — neither with its
        own reading nor via some cached estimate of it."""
        runtime = snapshot_runtime()
        rep, members = representative_with_members(runtime)
        FaultInjector(runtime).crash(rep)
        executor = QueryExecutor(runtime)
        result = executor.execute(
            Query(region=Everywhere(), use_snapshot=True), charge_energy=False
        )
        assert rep not in result.reports
        assert rep not in result.responders

    def test_orphaned_members_not_claimed_as_covered(self):
        """Members whose only path into the snapshot was the dead
        representative's model must be missing, not silently filled in:
        stale estimates counted as full coverage would make Figure 10's
        metric lie under failure."""
        runtime = snapshot_runtime()
        rep, members = representative_with_members(runtime)
        FaultInjector(runtime).crash(rep)
        executor = QueryExecutor(runtime)
        result = executor.execute(
            Query(region=Everywhere(), use_snapshot=True), charge_energy=False
        )
        orphans = [m for m in members if runtime.nodes[m].mode is NodeMode.PASSIVE]
        for member in orphans:
            assert member not in result.reports
        # Coverage reflects exactly the dead cluster's hole.
        expected = 1.0 - (1 + len(orphans)) / len(result.matching_all)
        assert result.coverage() == pytest.approx(expected)

    def test_maintenance_restores_coverage_after_death(self):
        runtime = snapshot_runtime()
        rep, _ = representative_with_members(runtime)
        FaultInjector(runtime).crash(rep)
        runtime.start_maintenance()
        runtime.advance_to(runtime.now + 45.0)  # two heartbeat periods
        runtime.maintenance.stop()
        result = QueryExecutor(runtime).execute(
            Query(region=Everywhere(), use_snapshot=True), charge_energy=False
        )
        # The orphans re-homed; only the dead node itself is missing.
        assert result.coverage() == pytest.approx(
            1.0 - 1 / len(result.matching_all)
        )

