"""Protocol invariants checked against a live runtime.

The paper never states its safety properties explicitly, but they are
implicit in the design and measurable in the figures; the
:class:`InvariantChecker` turns them into executable assertions that
hold at *quiescence points* — instants where no election round or
maintenance burst is in flight:

* **Settled modes** — every alive node is ACTIVE or PASSIVE; UNDEFINED
  is a transient election state only (Figure 5's fixpoint terminates).
* **Live representation** — every alive PASSIVE node names a
  representative that is alive and radio-reachable in both directions
  (§5.1's heartbeats guarantee detection of dead or out-of-range
  representatives); in strict mode the representative also claims the
  member back, so queries route the member's value (§3.1).
* **Unique claims** — no node is simultaneously claimed by two alive
  representatives (§3's "spurious representative" arbitration plus
  timestamp expiry converge on one owner).
* **Epoch monotonicity** — a node's election epoch never decreases
  (epochs order snapshot generations; a regression would let stale
  CandidateLists win arbitration).
* **No stale scratch flags** — ``_awaiting_offers``, ``_resigning`` and
  ``_await_reply`` are bounded-duration windows (reply window, one
  heartbeat period, heartbeat timeout); any still set at quiescence is
  a leaked flag that would mute the node or double-fire a re-election.
* **Table 2 message bound** — during one *global* election epoch, no
  node sends more than ``message_bound`` protocol messages (the paper's
  five, plus one maintenance-overlap allowance, per Table 2's "total
  5/6" column).  Checked automatically ``settle_delay`` after every
  ``election.started`` trace record.

Violations accumulate on the checker and raise :class:`InvariantError`
(an ``AssertionError`` subclass, so plain ``pytest`` reporting applies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.core.status import NodeMode
from repro.simulation.tracing import TraceRecord, TraceSubscription

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.core.runtime import SnapshotRuntime

__all__ = ["InvariantViolation", "InvariantError", "InvariantChecker"]


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant breach, with enough context to debug the schedule."""

    time: float
    invariant: str
    detail: str
    node: Optional[int] = None

    def __str__(self) -> str:
        where = f" node={self.node}" if self.node is not None else ""
        return f"[t={self.time:.3f}] {self.invariant}{where}: {self.detail}"


class InvariantError(AssertionError):
    """Raised when a quiescence check finds violations."""

    def __init__(self, violations: list[InvariantViolation]) -> None:
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"{len(self.violations)} protocol invariant violation(s):\n{lines}"
        )


@dataclass
class _EpochWindow:
    """One global election epoch's message-accounting window."""

    epoch: int
    started_at: float
    mark: dict = field(default_factory=dict)


class InvariantChecker:
    """Watches a runtime's trace stream and asserts protocol invariants.

    Parameters
    ----------
    runtime:
        The snapshot runtime under test.
    message_bound:
        Per-node protocol-message cap for one global election epoch
        (Table 2's six: invitation, candidate list, accept, and at most
        two refinement messages, plus one heartbeat-pair allowance).
    strict_claims:
        When true, a PASSIVE node's representative must also claim the
        member back in ``represented``.  Keep strict on lossless runs;
        relax under message loss, where a lost Accept legitimately
        leaves a one-sided pointer until the next heartbeat repairs it.
    auto_raise:
        When true (default), :meth:`check` raises on violations;
        otherwise it only records and returns them.
    """

    def __init__(
        self,
        runtime: "SnapshotRuntime",
        message_bound: int = 6,
        strict_claims: bool = True,
        auto_raise: bool = True,
    ) -> None:
        self.runtime = runtime
        self.message_bound = message_bound
        self.strict_claims = strict_claims
        self.auto_raise = auto_raise
        self.violations: list[InvariantViolation] = []
        self.checks_run = 0
        self.bound_checks_run = 0
        self._epoch_seen: dict[int, int] = {}
        self._subscriptions: list[TraceSubscription] = [
            runtime.simulator.trace.subscribe("election.started", self._on_election),
            runtime.simulator.trace.subscribe("protocol.settled", self._on_settled),
        ]

    # -- trace observers ---------------------------------------------------

    def _on_election(self, record: TraceRecord) -> None:
        """Open a message window; schedule the bound check at settle time."""
        window = _EpochWindow(
            epoch=record.payload["epoch"],
            started_at=record.time,
            mark=self.runtime.stats.mark(),
        )
        self.runtime.simulator.schedule(
            self.runtime.coordinator.settle_delay,
            partial(self._check_message_bound, window),
            label="invariant:msg-bound",
        )

    def _on_settled(self, record: TraceRecord) -> None:
        """Epochs must be monotone per node, across elections and reboots."""
        node = record.payload["node"]
        epoch = record.payload["epoch"]
        last = self._epoch_seen.get(node)
        if last is not None and epoch < last:
            self._record(
                "epoch-monotone",
                f"settled at epoch {epoch} after having reached epoch {last}",
                node=node,
                time=record.time,
            )
        else:
            self._epoch_seen[node] = epoch

    def _check_message_bound(self, window: _EpochWindow) -> None:
        """Table 2: per-node protocol messages in one election epoch."""
        self.bound_checks_run += 1
        per_node = self.runtime.stats.protocol_sent_per_node(since=window.mark)
        for node, count in sorted(per_node.items()):
            if count > self.message_bound:
                self._record(
                    "message-bound",
                    f"sent {count} protocol messages in election epoch "
                    f"{window.epoch} (bound {self.message_bound}, Table 2)",
                    node=node,
                )
        if self.auto_raise and self.violations:
            raise InvariantError(self.violations)

    # -- quiescence check --------------------------------------------------

    def check(self, strict_claims: Optional[bool] = None) -> list[InvariantViolation]:
        """Assert all structural invariants at the current instant.

        Call only at quiescence — after elections settle and maintenance
        bursts drain — or transient states will be misread as breaches.
        Returns the violations found by *this* call (also appended to
        :attr:`violations`); raises :class:`InvariantError` with the
        full list when ``auto_raise`` is set and anything was found.
        """
        strict = self.strict_claims if strict_claims is None else strict_claims
        before = len(self.violations)
        self.checks_run += 1
        nodes = self.runtime.nodes
        alive = {
            node_id: node for node_id, node in nodes.items() if node.alive
        }

        self._check_settled(alive)
        self._check_representation(alive, strict)
        self._check_unique_claims(alive)
        self._check_epoch_monotone(alive)
        self._check_scratch_flags(alive)

        found = self.violations[before:]
        if self.auto_raise and found:
            raise InvariantError(self.violations)
        return found

    def _check_settled(self, alive: dict) -> None:
        for node_id, node in alive.items():
            if not node.mode.settled:
                self._record(
                    "settled-mode",
                    f"mode is {node.mode.value} at quiescence",
                    node=node_id,
                )

    def _check_representation(self, alive: dict, strict: bool) -> None:
        topology = self.runtime.topology
        for node_id, node in alive.items():
            if node.mode is not NodeMode.PASSIVE:
                continue
            rep_id = node.representative_id
            if rep_id is None or rep_id == node_id:
                self._record(
                    "live-representative",
                    f"PASSIVE but representative is {rep_id!r}",
                    node=node_id,
                )
                continue
            rep = alive.get(rep_id)
            if rep is None:
                status = "unknown" if rep_id not in self.runtime.nodes else "dead"
                self._record(
                    "live-representative",
                    f"representative {rep_id} is {status}",
                    node=node_id,
                )
                continue
            if not (
                topology.can_transmit(node_id, rep_id)
                and topology.can_transmit(rep_id, node_id)
            ):
                self._record(
                    "live-representative",
                    f"representative {rep_id} is out of radio range",
                    node=node_id,
                )
                continue
            if strict:
                if rep.mode is not NodeMode.ACTIVE:
                    self._record(
                        "live-representative",
                        f"representative {rep_id} is {rep.mode.value}, not ACTIVE",
                        node=node_id,
                    )
                elif node_id not in rep.represented:
                    self._record(
                        "claimed-back",
                        f"representative {rep_id} does not claim this member",
                        node=node_id,
                    )

    def _check_unique_claims(self, alive: dict) -> None:
        claimed_by: dict[int, list[int]] = {}
        for rep_id, node in alive.items():
            if node.mode is not NodeMode.ACTIVE:
                continue
            for member in node.represented:
                claimed_by.setdefault(member, []).append(rep_id)
        for member, reps in sorted(claimed_by.items()):
            if len(reps) > 1:
                self._record(
                    "unique-claim",
                    f"claimed by representatives {sorted(reps)} simultaneously",
                    node=member,
                )

    def _check_epoch_monotone(self, alive: dict) -> None:
        for node_id, node in alive.items():
            last = self._epoch_seen.get(node_id)
            if last is not None and node.epoch < last:
                self._record(
                    "epoch-monotone",
                    f"epoch regressed to {node.epoch} after reaching {last}",
                    node=node_id,
                )
            else:
                self._epoch_seen[node_id] = node.epoch

    def _check_scratch_flags(self, alive: dict) -> None:
        for node_id, node in alive.items():
            for flag in ("_awaiting_offers", "_resigning", "_await_reply"):
                if getattr(node, flag):
                    self._record(
                        "no-stale-flags",
                        f"{flag} still set at quiescence",
                        node=node_id,
                    )

    # -- bookkeeping -------------------------------------------------------

    def _record(
        self,
        invariant: str,
        detail: str,
        node: Optional[int] = None,
        time: Optional[float] = None,
    ) -> None:
        self.violations.append(
            InvariantViolation(
                time=self.runtime.now if time is None else time,
                invariant=invariant,
                detail=detail,
                node=node,
            )
        )

    @property
    def ok(self) -> bool:
        """Whether no violation has been recorded so far."""
        return not self.violations

    def close(self) -> None:
        """Detach from the trace log (idempotent)."""
        for subscription in self._subscriptions:
            subscription.cancel()
