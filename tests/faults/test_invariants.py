"""Self-tests for the invariant checker.

A checker that never fires is worse than none: every invariant here is
driven to a *deliberately seeded* violation — forged node state or a
mutated protocol node — and must report it.  The happy path (a clean
election passes all checks) is covered too, so the checker neither
over- nor under-triggers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.core.status import NodeMode
from repro.data.series import Dataset
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker, InvariantError
from repro.network.topology import Topology


def elected_runtime(n: int = 6, seed: int = 13) -> SnapshotRuntime:
    base = np.linspace(0.0, 30.0, 300)
    dataset = Dataset(np.stack([base + 0.3 * i for i in range(n)]))
    topology = Topology([(0.08 * i, 0.0) for i in range(n)], ranges=2.0)
    runtime = SnapshotRuntime(
        topology,
        dataset,
        ProtocolConfig(threshold=5.0, heartbeat_period=10.0),
        seed=seed,
    )
    runtime.train(duration=6)
    runtime.run_election()
    return runtime


def passive_member(runtime: SnapshotRuntime) -> int:
    return next(
        node_id
        for node_id, node in runtime.nodes.items()
        if node.mode is NodeMode.PASSIVE
    )


class TestCleanPass:
    def test_clean_election_passes_all_checks(self):
        runtime = elected_runtime()
        checker = InvariantChecker(runtime)
        assert checker.check() == []
        assert checker.ok
        checker.close()

    def test_close_detaches_subscriptions(self):
        runtime = elected_runtime()
        trace = runtime.simulator.trace
        def subscribers():
            return len(trace._subscribers.get("election.started", ()))

        before = subscribers()
        checker = InvariantChecker(runtime)
        assert subscribers() == before + 1
        checker.close()
        checker.close()  # idempotent
        assert subscribers() == before


class TestSeededViolations:
    def test_unsettled_node_reported(self):
        runtime = elected_runtime()
        runtime.nodes[2].mode = NodeMode.UNDEFINED
        checker = InvariantChecker(runtime, auto_raise=False)
        found = checker.check()
        assert any(v.invariant == "settled-mode" and v.node == 2 for v in found)

    def test_dead_representative_reported(self):
        runtime = elected_runtime()
        member = passive_member(runtime)
        rep = runtime.nodes[member].representative_id
        FaultInjector(runtime).crash(rep)
        checker = InvariantChecker(runtime, auto_raise=False)
        found = checker.check()
        assert any(
            v.invariant == "live-representative" and v.node == member
            for v in found
        )

    def test_missing_back_claim_reported_in_strict_mode_only(self):
        runtime = elected_runtime()
        member = passive_member(runtime)
        rep = runtime.nodes[member].representative_id
        del runtime.nodes[rep].represented[member]
        checker = InvariantChecker(runtime, auto_raise=False)
        assert any(v.invariant == "claimed-back" for v in checker.check())
        relaxed = InvariantChecker(runtime, auto_raise=False, strict_claims=False)
        assert relaxed.check() == []

    def test_double_claim_reported(self):
        runtime = elected_runtime()
        member = passive_member(runtime)
        rep = runtime.nodes[member].representative_id
        # Forge a second claimant: promote another node to ACTIVE with
        # a claim on the same member.
        other = next(
            node_id
            for node_id in runtime.nodes
            if node_id not in (member, rep)
        )
        from repro.core.protocol import MemberInfo

        runtime.nodes[other].mode = NodeMode.ACTIVE
        runtime.nodes[other].representative_id = other
        runtime.nodes[other].represented[member] = MemberInfo(
            location=None, accepted_at=runtime.now
        )
        checker = InvariantChecker(runtime, auto_raise=False)
        found = checker.check()
        assert any(
            v.invariant == "unique-claim" and v.node == member for v in found
        )

    def test_epoch_regression_reported(self):
        runtime = elected_runtime()
        checker = InvariantChecker(runtime, auto_raise=False)
        checker.check()  # records current epochs
        runtime.nodes[1].epoch -= 1
        found = checker.check()
        assert any(
            v.invariant == "epoch-monotone" and v.node == 1 for v in found
        )

    def test_epoch_regression_in_settled_trace_reported(self):
        runtime = elected_runtime()
        checker = InvariantChecker(runtime, auto_raise=False)
        trace = runtime.simulator.trace
        trace.emit(runtime.now, "protocol.settled", node=0, mode="active", epoch=9)
        trace.emit(runtime.now, "protocol.settled", node=0, mode="active", epoch=8)
        assert any(v.invariant == "epoch-monotone" for v in checker.violations)

    @pytest.mark.parametrize("flag", ["_awaiting_offers", "_resigning", "_await_reply"])
    def test_stale_flag_reported(self, flag):
        runtime = elected_runtime()
        setattr(runtime.nodes[3], flag, True)
        checker = InvariantChecker(runtime, auto_raise=False)
        found = checker.check()
        assert any(
            v.invariant == "no-stale-flags" and v.node == 3 and flag in v.detail
            for v in found
        )

    def test_auto_raise_raises_invariant_error(self):
        runtime = elected_runtime()
        runtime.nodes[2].mode = NodeMode.UNDEFINED
        checker = InvariantChecker(runtime)
        with pytest.raises(InvariantError) as excinfo:
            checker.check()
        assert "settled-mode" in str(excinfo.value)
        assert isinstance(excinfo.value, AssertionError)


class TestMessageBound:
    def test_real_election_violates_bound_of_one(self):
        """Non-vacuity of the Table 2 check: with an absurd bound of 1,
        a perfectly normal election must trip it."""
        base = np.linspace(0.0, 30.0, 300)
        dataset = Dataset(np.stack([base + 0.3 * i for i in range(6)]))
        topology = Topology([(0.08 * i, 0.0) for i in range(6)], ranges=2.0)
        runtime = SnapshotRuntime(
            topology, dataset, ProtocolConfig(threshold=5.0), seed=13
        )
        checker = InvariantChecker(runtime, message_bound=1)
        runtime.train(duration=6)
        with pytest.raises(InvariantError) as excinfo:
            runtime.run_election()
        assert "message-bound" in str(excinfo.value)
        assert checker.bound_checks_run == 1

    def test_real_election_respects_table2_bound(self):
        runtime = elected_runtime()  # checker attached after; elect again
        checker = InvariantChecker(runtime, message_bound=6, auto_raise=False)
        runtime.run_election()
        assert checker.bound_checks_run == 1
        assert checker.ok

    def test_pre_election_traffic_excluded_from_window(self):
        """The bound is windowed from the election start, not cumulative:
        training traffic before the epoch must not count against it."""
        base = np.linspace(0.0, 30.0, 300)
        dataset = Dataset(np.stack([base + 0.3 * i for i in range(6)]))
        topology = Topology([(0.08 * i, 0.0) for i in range(6)], ranges=2.0)
        runtime = SnapshotRuntime(
            topology, dataset, ProtocolConfig(threshold=5.0), seed=13
        )
        checker = InvariantChecker(runtime, message_bound=6)
        runtime.train(duration=6)
        # Protocol-message noise before the election: a full re-election
        # per node would blow a cumulative bound.
        for node in runtime.nodes.values():
            node.start_reelection()
        runtime.advance_to(runtime.now + 10.0)
        runtime.run_election()  # raises if the window leaked backwards
        assert checker.bound_checks_run == 1


class TestBehavioralMutant:
    def test_mutant_skipping_accept_caught_by_strict_claims(self):
        """Mutate one node to silently skip its Accept during §5.1
        re-election: it ends PASSIVE pointing at a representative that
        never learned of it.  The strict claimed-back invariant must
        catch the mutant (the checker is not vacuous on real protocol
        traffic, not just on forged state)."""
        runtime = elected_runtime(n=6, seed=17)
        member = passive_member(runtime)
        mutant = runtime.nodes[member]
        mutant._send_accept = lambda representative: None  # drops the Accept
        # Forget the election-time claim, then force a re-election.
        rep = mutant.representative_id
        runtime.nodes[rep].represented.pop(member, None)
        mutant.start_reelection()
        runtime.advance_to(runtime.now + 6.0)  # reply window + settling
        assert mutant.mode is NodeMode.PASSIVE  # chose a representative...
        checker = InvariantChecker(runtime, auto_raise=False)
        found = checker.check()
        assert any(
            v.invariant == "claimed-back" and v.node == member for v in found
        )
