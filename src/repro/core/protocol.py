"""Per-node snapshot protocol state machine (§5 and §5.1 of the paper).

:class:`ProtocolNode` implements everything one sensor runs:

**Global election** (Table 2), driven phase-by-phase by the
:class:`~repro.core.election.ElectionCoordinator`:

1. *invitation* — broadcast our current measurement, collecting the
   neighbors' invitations as they arrive;
2. *model evaluation* — estimate each inviter's value with our cached
   model and broadcast the list ``Cand_nodes`` of those within the
   threshold;
3. *initial selection* — accept the offer with the longest candidate
   list (largest id breaks ties) and inform the chosen representative;
4. *refinement* — apply Rules 0–4 of Figure 5, exchanging at most two
   more messages per node, until every node settles ACTIVE or PASSIVE.

**Maintenance** (§5.1): passive nodes heartbeat their representative
and re-elect on a bad estimate or a timeout; lone actives periodically
invite; representatives can resign (energy hand-off, LEACH-style
rotation).  Maintenance selection ranks offers by
``len(Cand_nodes) + |already represented|``.

The refinement rules are evaluated as a message-driven fixpoint:
``_reconsider`` re-applies the rule list whenever local knowledge
changes (a recall arrives, a stay-active request arrives, ...), exactly
reproducing the cascade of the paper's running example (Figures 3→4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Optional

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.status import NodeMode
from repro.models.policy import Action, CachePolicy
from repro.network.messages import (
    Accept,
    AckRepresenting,
    CandidateList,
    DataReport,
    Heartbeat,
    HeartbeatReply,
    Invitation,
    Message,
    Recall,
    Resign,
    StayActive,
)
from repro.network.radio import Radio
from repro.simulation.events import Event

__all__ = ["ProtocolNode", "MemberInfo", "StructureTally"]


class StructureTally:
    """Running totals behind ``SnapshotRuntime.structure_version``.

    ``epoch`` is the largest election epoch the coordinator or any node
    has reached and ``reelections`` the sum of every node's §5.1
    re-elections.  The coordinator and the nodes sharing a tally update
    it at their only writes, so reading the version costs O(1) instead
    of a sweep over the network.  A node's epoch never decreases, which
    keeps a running maximum exact.
    """

    __slots__ = ("epoch", "reelections")

    def __init__(self) -> None:
        self.epoch = 0
        self.reelections = 0

    def reach(self, epoch: int) -> None:
        """Record that some participant is now at ``epoch``."""
        if epoch > self.epoch:
            self.epoch = epoch


@dataclass
class MemberInfo:
    """What a representative knows about a node it represents.

    The location travels inside the Accept message so the
    representative can evaluate spatial predicates on the member's
    behalf (§3.1); the timestamps support spurious-representative
    arbitration and stale-claim expiry (§3's "filtering and
    self-correction ... performed by the network").
    """

    location: Optional[tuple[float, float]]
    accepted_at: float
    last_heard: float = 0.0

    def __post_init__(self) -> None:
        if self.last_heard < self.accepted_at:
            self.last_heard = self.accepted_at


class ProtocolNode:
    """The snapshot protocol instance running on one sensor node."""

    def __init__(
        self,
        node_id: int,
        radio: Radio,
        cache: CachePolicy,
        config: ProtocolConfig,
        value_fn: Callable[[], float],
        location: tuple[float, float],
        tally: Optional[StructureTally] = None,
    ) -> None:
        self.node_id = node_id
        self.radio = radio
        #: The neighbor models (§4): one byte-budgeted cache policy.
        self.cache = cache
        self.config = config
        self.value_fn = value_fn
        self.location = location
        self.simulator = radio.simulator
        self._stream = None  # ``protocol.<id>``, created by the first draw

        # public protocol state
        self.mode = NodeMode.UNDEFINED
        self.representative_id: Optional[int] = None
        self.represented: dict[int, MemberInfo] = {}
        self.epoch = 0
        #: Shared with the runtime; ``epoch`` and ``reelections`` writes
        #: go through to it.
        self.tally = tally if tally is not None else StructureTally()

        # election-round scratch state
        self._collecting_invitations = False
        self._heard_invitations: dict[int, float] = {}
        self._heard_list_lengths: dict[int, int] = {}
        self._offers: dict[int, int] = {}
        self._my_list_length = 0
        self._refining = False
        self._sent_recall = False
        self._sent_stay_active = False
        self._ack_pending = False
        self._rule4_event: Optional[Event] = None

        # maintenance scratch state
        self._awaiting_offers = False
        self._await_reply = False
        self._reply_timeout_event: Optional[Event] = None
        self._resigning = False
        self._pending_invitations: dict[int, tuple[float, int]] = {}
        self._offer_flush_scheduled = False

        # Snoop probability is mutable so training phases can override
        # the configured rate (the runtime's ``train`` sets it to 1).
        self.snoop_probability = config.snoop_probability

        # statistics
        self.reelections = 0
        self._reelections_counter = self.simulator.metrics.counter(
            "election.reelections", labels=("node",)
        )
        self._observe_counter = self.simulator.metrics.counter(
            "cache.observe", labels=("node", "action")
        )

        self.device = radio.node(node_id)
        self.device.protocol = self
        radio.burst_dispatch = dispatch_burst

    # ------------------------------------------------------------------
    # public read side
    # ------------------------------------------------------------------

    @property
    def _rng(self):
        """This node's own ``protocol.<id>`` stream.

        One stream per node makes each node's draws depend only on its
        own history, not on how other nodes' events interleave with
        it.  It is created on the first draw: a stream's state
        derives only from the seed and its name, so creation time does
        not matter, and a node that never draws never pays for one.
        """
        rng = self._stream
        if rng is None:
            rng = self._stream = self.simulator.random.stream(
                f"protocol.{self.node_id}"
            )
        return rng

    @property
    def alive(self) -> bool:
        """Whether the underlying device is alive (charged, not crashed):
        its liveness byte, read once."""
        device = self.device
        return not device._state.flags[device._slot]

    def covered_nodes(self) -> set[int]:
        """Node ids this node answers snapshot queries for.

        An ACTIVE node covers itself and every node it represents; a
        PASSIVE (or undefined) node covers nothing.
        """
        if self.mode is not NodeMode.ACTIVE:
            return set()
        return {self.node_id} | set(self.represented)

    def estimate_for(self, member_id: int) -> Optional[float]:
        """Model estimate of a represented node's current value."""
        if member_id == self.node_id:
            return self.value_fn()
        return self.cache.estimate(member_id, self.value_fn())

    def can_represent(
        self, neighbor_id: int, neighbor_value: float, own_value: float
    ) -> bool:
        """The §3 test ``d(x_j, x̂_j) <= T``; never without a model."""
        estimate = self.cache.estimate(neighbor_id, own_value)
        return estimate is not None and self.config.metric.within(
            neighbor_value, estimate, self.config.threshold
        )

    # ------------------------------------------------------------------
    # global election phases (called by the coordinator)
    # ------------------------------------------------------------------

    def reset_round(self, epoch: int) -> None:
        """Clear all round state and start collecting invitations."""
        self.epoch = epoch
        self.tally.reach(epoch)
        self.mode = NodeMode.UNDEFINED
        self.representative_id = None
        self.represented.clear()
        self._heard_invitations.clear()
        self._heard_list_lengths.clear()
        self._offers.clear()
        self._my_list_length = 0
        self._refining = False
        self._sent_recall = False
        self._sent_stay_active = False
        self._ack_pending = False
        self._collecting_invitations = True
        self._awaiting_offers = False
        self._await_reply = False
        self._resigning = False
        self._pending_invitations.clear()
        self._offer_flush_scheduled = False
        self._cancel_event("_rule4_event")
        self._cancel_event("_reply_timeout_event")

    def phase_invite(self) -> None:
        """Invitation phase: broadcast our current measurement."""
        if not self.alive:
            return
        self.radio.broadcast(
            Invitation(sender=self.node_id, value=self.value_fn(), epoch=self.epoch)
        )

    def phase_evaluate(self) -> None:
        """Model-evaluation phase: broadcast the list of nodes we can represent."""
        if not self.alive:
            return
        self._collecting_invitations = False
        own_value = self.value_fn()
        candidates = tuple(
            j
            for j in sorted(self._heard_invitations)
            if self.can_represent(j, self._heard_invitations[j], own_value)
        )
        self._my_list_length = len(candidates)
        self.radio.broadcast(
            CandidateList(
                sender=self.node_id,
                candidates=candidates,
                epoch=self.epoch,
                already_representing=0,
            )
        )

    def phase_select(self) -> None:
        """Initial selection: accept the best offer, or represent ourselves."""
        if not self.alive:
            return
        choice = self._best_offer()
        if choice is None:
            self.representative_id = self.node_id
        else:
            self.representative_id = choice
            self._send_accept(choice)

    def phase_refine(self) -> None:
        """Start the Figure 5 refinement fixpoint plus the Rule-4 timer."""
        if not self.alive:
            return
        self._refining = True
        self._reconsider()
        if not self.mode.settled:
            self._rule4_event = self.simulator.schedule(
                self.config.max_wait, self._rule4_tick, label="rule4"
            )

    def end_refinement(self) -> None:
        """Close the global round's refinement (scheduled by the coordinator).

        After this, the Figure 5 rules stop re-firing on incoming
        messages and the maintenance semantics (e.g. the PASSIVE
        role-taking flip on Accept) fully apply.
        """
        self._refining = False

    def reboot(self) -> None:
        """Cold-start recovery after a crash-and-revival (fault injection).

        A revived node keeps its trained neighbor models (flash survives
        a reboot) but forgets all volatile protocol state: the members
        it claimed, its representative pointer, and every in-flight flag
        and timer.  Without this reset, a node that crashed while
        ``_awaiting_offers`` was set would come back permanently mute —
        never answering invitations and never finishing its own
        re-election — because ``_finish_reelection`` fired while it was
        down.  It then rejoins the structure through an ordinary §5.1
        re-election, announcing itself to the neighborhood.
        """
        self.mode = NodeMode.UNDEFINED
        self.representative_id = None
        self.represented.clear()
        self._collecting_invitations = False
        self._heard_invitations.clear()
        self._heard_list_lengths.clear()
        self._offers.clear()
        self._my_list_length = 0
        self._refining = False
        self._sent_recall = False
        self._sent_stay_active = False
        self._ack_pending = False
        self._awaiting_offers = False
        self._await_reply = False
        self._resigning = False
        self._pending_invitations.clear()
        self._offer_flush_scheduled = False
        self._cancel_event("_rule4_event")
        self._cancel_event("_reply_timeout_event")
        self.simulator.trace.emit(
            self.simulator.now, "protocol.reboot", node=self.node_id
        )
        self.start_reelection()

    # ------------------------------------------------------------------
    # refinement rules (Figure 5)
    # ------------------------------------------------------------------

    def _reconsider(self) -> None:
        """Apply Rules 0–3 against current knowledge (idempotent)."""
        if not self._refining or not self.alive:
            return

        # Rule-0: break mutual-representation ties by list length, then id.
        rep = self.representative_id
        if (
            not self.mode.settled
            and rep is not None
            and rep != self.node_id
            and rep in self.represented
        ):
            their_length = self._heard_list_lengths.get(rep, 0)
            if self._my_list_length > their_length or (
                self._my_list_length == their_length and self.node_id > rep
            ):
                self._settle(NodeMode.ACTIVE)

        # Rule-1: nodes that represent themselves stay ACTIVE.
        if not self.mode.settled and self.representative_id == self.node_id:
            self._settle(NodeMode.ACTIVE)

        # Rule-2: an ACTIVE node recalls its own (redundant) representative.
        if (
            self.mode is NodeMode.ACTIVE
            and self.representative_id is not None
            and self.representative_id != self.node_id
            and not self._sent_recall
        ):
            old_rep = self.representative_id
            self._sent_recall = True
            self.representative_id = self.node_id
            self.radio.unicast(
                Recall(sender=self.node_id, target=old_rep, epoch=self.epoch), old_rep
            )

        # Rule-3: represented, representing no one -> request the
        # representative to stay ACTIVE; PASSIVE follows its ack.
        if (
            not self.mode.settled
            and self.representative_id is not None
            and self.representative_id != self.node_id
            and not self.represented
            and not self._sent_stay_active
        ):
            self._sent_stay_active = True
            self.radio.unicast(
                StayActive(
                    sender=self.node_id,
                    target=self.representative_id,
                    epoch=self.epoch,
                ),
                self.representative_id,
            )

    def _rule4_tick(self) -> None:
        """Rule-4: timed-out UNDEFINED nodes go ACTIVE with prob ``1 - P_wait``.

        The ELSE branch of Figure 5 "reconsiders in the next time unit":
        the node re-enters the rule loop, which in particular re-sends
        its Rule-3 StayActive request.  Under message loss this retry is
        what lets most represented nodes still settle PASSIVE (the
        robustness Figure 7 demonstrates up to ~80% loss); without loss
        no node ever reaches Rule-4 and the at-most-two refinement
        messages of Table 2 hold.
        """
        self._rule4_event = None
        if not self.alive or self.mode.settled:
            return
        if self._rng.random() > self.config.p_wait:
            self._settle(NodeMode.ACTIVE)
            self._reconsider()
        else:
            # Retry Rule-3: a lost StayActive or acknowledgment is the
            # usual reason we are still UNDEFINED.
            self._sent_stay_active = False
            self._reconsider()
            self._rule4_event = self.simulator.schedule(
                self.config.rule4_retry, self._rule4_tick, label="rule4"
            )

    def _settle(self, mode: NodeMode) -> None:
        """Resolve UNDEFINED to ``mode``; settled modes never flip in-round."""
        if self.mode.settled:
            return
        self.mode = mode
        self.simulator.trace.emit(
            self.simulator.now, "protocol.settled",
            node=self.node_id, mode=mode.value, epoch=self.epoch,
        )

    # ------------------------------------------------------------------
    # maintenance (§5.1)
    # ------------------------------------------------------------------

    def send_heartbeat(self) -> None:
        """Passive node: probe the representative with our current value."""
        if not self.alive or self.mode is not NodeMode.PASSIVE:
            return
        rep = self.representative_id
        if rep is None or rep == self.node_id:
            return
        self.radio.unicast(
            Heartbeat(sender=self.node_id, target=rep, value=self.value_fn()), rep
        )
        self._await_reply = True
        self._cancel_event("_reply_timeout_event")
        self._reply_timeout_event = self.simulator.schedule(
            self.config.heartbeat_timeout, self._heartbeat_timeout, label="hb-timeout"
        )

    def _heartbeat_timeout(self) -> None:
        """No reply: the representative failed or is out of reach — re-elect."""
        self._reply_timeout_event = None
        if not self._await_reply or not self.alive:
            return
        if self.mode is not NodeMode.PASSIVE:
            # The node changed role while the probe was in flight (e.g.
            # it was chosen as a representative and took the role); the
            # stale timeout must not push it back into a re-election.
            self._await_reply = False
            return
        self._await_reply = False
        self.simulator.trace.emit(
            self.simulator.now, "maintenance.rep_unreachable",
            node=self.node_id, representative=self.representative_id,
        )
        self.start_reelection()

    def lone_active_invite(self) -> None:
        """ACTIVE node representing only itself periodically invites (§5.1)."""
        if (
            not self.alive
            or self.mode is not NodeMode.ACTIVE
            or self.represented
            or self._resigning
            or self._awaiting_offers
        ):
            return
        self.start_reelection(recall_old=False)

    def start_reelection(self, recall_old: bool = False) -> None:
        """Invite the neighborhood to (re-)represent us (§5.1 discovery).

        Parameters
        ----------
        recall_old:
            Send a Recall to the previous representative first (used
            when it is reachable but its model went stale, so it does
            not keep a spurious claim).
        """
        if not self.alive:
            return
        # Re-entrancy guard, uniform across every entry point (heartbeat
        # timeout, bad-estimate recall, Resign hand-off, lone-active
        # invite, reboot): a node already collecting offers — or cooling
        # down after a resignation — must not open a second overlapping
        # round.  The overlap would double-count ``reelections``, clear
        # ``_offers`` mid-collection, and send a second Invitation that
        # breaks Table 2's per-epoch message bound.
        if self._awaiting_offers or self._resigning:
            return
        # This round supersedes any in-flight heartbeat exchange: the
        # pending timeout would otherwise fire mid-election and re-enter
        # here through ``_heartbeat_timeout``.
        self._await_reply = False
        self._cancel_event("_reply_timeout_event")
        old_rep = self.representative_id
        if (
            recall_old
            and old_rep is not None
            and old_rep != self.node_id
        ):
            self.radio.unicast(
                Recall(sender=self.node_id, target=old_rep, epoch=self.epoch), old_rep
            )
        self.reelections += 1
        self.tally.reelections += 1
        self._reelections_counter.inc(self.node_id)
        self.simulator.spans.instant("reelection", node=self.node_id, epoch=self.epoch)
        self.mode = NodeMode.UNDEFINED
        self.representative_id = None
        self._offers.clear()
        self._awaiting_offers = True
        self.radio.broadcast(
            Invitation(sender=self.node_id, value=self.value_fn(), epoch=self.epoch)
        )
        self.simulator.schedule(
            self.config.reply_window, self._finish_reelection, label="reelect-select"
        )

    def _finish_reelection(self) -> None:
        """Pick the best maintenance offer: ``len(list) + already_representing``."""
        if not self.alive or not self._awaiting_offers:
            return
        self._awaiting_offers = False
        choice = self._best_offer()
        # Rule-3's precondition holds in maintenance too: a node that
        # (meanwhile) represents others must stay ACTIVE, otherwise
        # chained adoptions could drain the network of representatives.
        if choice is None or self.represented:
            self.representative_id = self.node_id
            self.mode = NodeMode.ACTIVE
        else:
            self.representative_id = choice
            self._send_accept(choice)
            self.mode = NodeMode.PASSIVE
        self._offers.clear()

    def resign(self) -> None:
        """Hand the represented nodes back to the network (§5.1).

        Used both for the energy hand-off (battery below threshold) and
        for LEACH-style rotation.  The node ignores invitations until
        the next maintenance round so it is not immediately re-elected.
        It moves the runtime's state key, even outside any event.
        """
        if not self.alive or self.mode is not NodeMode.ACTIVE or not self.represented:
            return
        members = tuple(sorted(self.represented))
        self._resigning = True
        self.radio.devices.changes += 1
        self.radio.broadcast(Resign(sender=self.node_id, members=members))
        self.represented.clear()
        self.simulator.trace.emit(
            self.simulator.now, "maintenance.resigned",
            node=self.node_id, members=list(members),
        )
        self.simulator.schedule(
            self.config.heartbeat_period, self._clear_resigning, label="resign-cooldown"
        )

    def _clear_resigning(self) -> None:
        self._resigning = False

    def _energy_exhausted(self) -> bool:
        """Whether the battery is below the §5.1 hand-off threshold."""
        return (
            self.config.energy_resign_fraction > 0
            and self.device.battery.fraction_remaining
            < self.config.energy_resign_fraction
        )

    def check_energy(self) -> None:
        """Energy-aware hand-off: resign when below the battery threshold."""
        if self.mode is NodeMode.ACTIVE and self.represented and self._energy_exhausted():
            self.resign()

    def expire_stale_members(self, max_silence: float) -> list[int]:
        """Drop claims on members not heard from for ``max_silence``.

        A member that died, drifted out of range, or elected another
        representative stops heartbeating us; §3's timestamp-based
        self-correction says the stale claim should be filtered by the
        network.  Returns the expired member ids.
        """
        if self.mode is not NodeMode.ACTIVE or max_silence <= 0:
            return []
        now = self.simulator.now
        expired = [
            member
            for member, info in self.represented.items()
            if now - info.last_heard > max_silence
        ]
        for member in expired:
            del self.represented[member]
            self.simulator.trace.emit(
                now, "maintenance.member_expired",
                representative=self.node_id, member=member,
            )
        return expired

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        """Handle one delivered message: a run of one burst to one receiver.

        The radio hands whole runs to :func:`dispatch_burst`; this is
        the same table entry applied to this node alone.  Addressing
        comes from the message itself.
        """
        burst = _BURSTS.get(type(message))
        if burst is not None:
            burst((message,), ((self.node_id,),), {self.node_id: self.device})

    def _on_invitation(self, message: Invitation) -> None:
        if message.sender == self.node_id:
            return
        if self._collecting_invitations:
            self._heard_invitations[message.sender] = message.value
            return
        # Maintenance path: any settled node in the vicinity responds
        # (§5.1 — "the nodes in the vicinity respond as is summarized
        # in Table 2"), including PASSIVE ones, which become ACTIVE if
        # chosen.  A node mid-invitation must not mutually adopt a
        # concurrent inviter, and a node that is resigning or below the
        # energy hand-off threshold never volunteers for more work.
        # Concurrent invitations (e.g. the members of a resigned
        # representative all re-electing at once) are batched into a
        # single CandidateList broadcast, exactly as in the global
        # election's model-evaluation phase.
        if (
            not self.mode.settled
            or self._resigning
            or self._awaiting_offers
            or self._energy_exhausted()
        ):
            return
        self._pending_invitations[message.sender] = (message.value, message.epoch)
        if not self._offer_flush_scheduled:
            self._offer_flush_scheduled = True
            self.simulator.schedule(
                self.config.offer_batch_delay, self._flush_offers, label="offer-flush"
            )

    def _flush_offers(self) -> None:
        """Answer all recently heard invitations with one candidate list."""
        self._offer_flush_scheduled = False
        pending, self._pending_invitations = self._pending_invitations, {}
        if not pending or not self.alive:
            return
        if (
            not self.mode.settled
            or self._resigning
            or self._awaiting_offers
            or self._energy_exhausted()
        ):
            return
        own_value = self.value_fn()
        candidates = tuple(
            inviter
            for inviter in sorted(pending)
            if self.can_represent(inviter, pending[inviter][0], own_value)
        )
        if not candidates:
            return
        # Answer at the network's epoch, never below our own: an inviter
        # that rebooted with a stale epoch adopts ours from this list
        # (see ``_on_candidate_list``), re-synchronizing the epochs.
        epoch = max(self.epoch, max(epoch for __, epoch in pending.values()))
        self.radio.broadcast(
            CandidateList(
                sender=self.node_id,
                candidates=candidates,
                epoch=epoch,
                already_representing=len(self.represented),
            )
        )

    def _on_candidate_list(self, message: CandidateList) -> None:
        if message.epoch != self.epoch:
            # A node that was down during a global election re-invites
            # with a stale epoch; responders answer at the *network's*
            # epoch.  Adopting the newer epoch (monotone per node) is
            # what lets the revived node re-enter the structure — with
            # strict equality its Accept would be rejected by the chosen
            # representative and it would re-elect forever.  Older
            # epochs are still stale traffic and stay rejected.
            if not (self._awaiting_offers and message.epoch > self.epoch):
                return
            self.epoch = message.epoch
            self.tally.reach(message.epoch)
        self._heard_list_lengths[message.sender] = len(message.candidates)
        if self.node_id in message.candidates:
            self._offers[message.sender] = (
                len(message.candidates) + message.already_representing
            )

    def _on_accept(self, message: Accept) -> None:
        if message.epoch < self.epoch:
            return
        # Newer epochs are adopted, not rejected (monotone per node):
        # the accepting member may have re-synchronized to the network's
        # epoch while we were down during an election.
        self.epoch = max(self.epoch, message.epoch)
        self.tally.reach(self.epoch)
        self.represented[message.sender] = MemberInfo(
            location=message.location, accepted_at=message.timestamp
        )
        # A PASSIVE node can only be the target of an Accept during
        # maintenance (the global round's Accepts all precede any mode
        # settling), so check the role-taking flip before refinement.
        if self.mode is NodeMode.PASSIVE:
            # Maintenance: a passive node chosen as representative takes
            # the role — it turns ACTIVE and recalls its own
            # representative (the Rule-2 clean-up, applied outside the
            # global round), keeping the representation structure flat.
            # Any heartbeat probe in flight is void with the role: its
            # timeout must not drag the new representative back into a
            # re-election of its own.
            self._await_reply = False
            self._cancel_event("_reply_timeout_event")
            self.mode = NodeMode.ACTIVE
            old_rep = self.representative_id
            self.representative_id = self.node_id
            if old_rep is not None and old_rep != self.node_id:
                self.radio.unicast(
                    Recall(sender=self.node_id, target=old_rep, epoch=self.epoch),
                    old_rep,
                )
        elif self._refining:
            self._reconsider()

    def _on_recall(self, message: Recall) -> None:
        self.represented.pop(message.sender, None)
        if self._refining:
            self._reconsider()

    def _on_stay_active(self, message: StayActive) -> None:
        if self.mode is NodeMode.PASSIVE:
            # Cannot honor without flipping modes; the requester falls
            # back to Rule-4 when no acknowledgment arrives.
            return
        if message.sender not in self.represented:
            # The Accept may have been lost; the StayActive itself
            # asserts the sender considers us its representative.
            self.represented[message.sender] = MemberInfo(
                location=None, accepted_at=self.simulator.now
            )
        if not self.mode.settled:
            self._settle(NodeMode.ACTIVE)
        self._schedule_ack()
        if self._refining:
            self._reconsider()

    def _on_ack_representing(self, message: AckRepresenting) -> None:
        if (
            self.mode.settled
            or not self._sent_stay_active
            or message.sender != self.representative_id
            or self.node_id not in message.represented
        ):
            return
        self._settle(NodeMode.PASSIVE)
        self._cancel_event("_rule4_event")

    def _on_heartbeat(self, message: Heartbeat) -> None:
        if not self.alive:
            return
        own_value = self.value_fn()
        # The heartbeat doubles as a model fine-tuning sample (§3).
        self._record_observation(message.sender, own_value, message.value)
        self.radio.charge_cpu(self.node_id)
        if self.mode is NodeMode.ACTIVE and message.sender in self.represented:
            self.represented[message.sender].last_heard = self.simulator.now
            estimate = self.cache.estimate(message.sender, own_value)
        else:
            # We are not actually this node's representative (a stale
            # pointer after churn): answer with no estimate so the
            # sender re-elects instead of trusting a broken structure.
            estimate = None
        self.radio.unicast(
            HeartbeatReply(
                sender=self.node_id, target=message.sender, estimate=estimate
            ),
            message.sender,
        )
        # Heartbeats arrive spread across the whole maintenance
        # period, so checking here lets a draining representative hand
        # off (§5.1) before its battery actually empties, instead of
        # only at period boundaries.
        self.check_energy()

    def _on_heartbeat_reply(self, message: HeartbeatReply) -> None:
        if not self._await_reply:
            return
        if message.sender != self.representative_id:
            return
        self._await_reply = False
        self._cancel_event("_reply_timeout_event")
        current = self.value_fn()
        bad_estimate = message.estimate is None or not self.config.metric.within(
            current, message.estimate, self.config.threshold
        )
        if bad_estimate:
            self.simulator.trace.emit(
                self.simulator.now, "maintenance.model_stale",
                node=self.node_id, representative=message.sender,
            )
            # The representative is reachable but inaccurate: recall it
            # so no spurious claim lingers, then re-elect.
            self.start_reelection(recall_old=True)

    def _on_resign(self, message: Resign) -> None:
        if (
            self.mode is NodeMode.PASSIVE
            and message.sender == self.representative_id
            and self.node_id in message.members
        ):
            self.start_reelection()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _best_offer(self) -> Optional[int]:
        """The §5 selection rule: longest candidate list, largest id on
        ties — or a uniformly random offer under the ablation policy."""
        if not self._offers:
            return None
        if self.config.selection_policy == "random":
            choices = sorted(self._offers)
            return int(choices[self._rng.integers(0, len(choices))])
        return max(self._offers.items(), key=lambda item: (item[1], item[0]))[0]

    def _send_accept(self, representative: int) -> None:
        self.radio.unicast(
            Accept(
                sender=self.node_id,
                representative=representative,
                epoch=self.epoch,
                location=self.location,
                timestamp=self.simulator.now,
            ),
            representative,
        )

    def _schedule_ack(self) -> None:
        """Debounced Rule-3 acknowledgment: one broadcast per burst."""
        if self._ack_pending:
            return
        self._ack_pending = True
        self.simulator.schedule(self.config.ack_delay, self._fire_ack, label="ack")

    def _fire_ack(self) -> None:
        self._ack_pending = False
        if not self.alive:
            return
        self.radio.broadcast(
            AckRepresenting(
                sender=self.node_id,
                represented=tuple(sorted(self.represented)),
                epoch=self.epoch,
            )
        )

    def _record_observation(
        self, neighbor_id: int, own_value: float, neighbor_value: float
    ) -> str:
        """Feed the cache and emit the observation's counter and span.

        The caller charges the §6.2 CPU cost of the update.
        """
        action = self.cache.observe(neighbor_id, own_value, neighbor_value)
        self._observe_counter.inc((self.node_id, action))
        if action != Action.REJECT:
            # Admissions (append/shift/augment/newcomer) land on the
            # span timeline; rejects are counted but not timestamped.
            self.simulator.spans.instant(
                "cache.admit", node=self.node_id, neighbor=neighbor_id, action=action
            )
        return action

    def _cancel_event(self, attribute: str) -> None:
        event = getattr(self, attribute)
        if event is not None:
            self.simulator.cancel(event)
            setattr(self, attribute, None)

    def __repr__(self) -> str:
        return (
            f"ProtocolNode(id={self.node_id}, mode={self.mode.value}, "
            f"rep={self.representative_id}, members={sorted(self.represented)})"
        )


# ----------------------------------------------------------------------
# burst dispatch
# ----------------------------------------------------------------------
#
# A *burst* is one transmission's surviving receivers; a *run* is a
# stretch of bursts of one delivery event (see ``Radio._deliver_wave``)
# in which no receiver's liveness can change.  Only a wave of
# ``DataReport`` bursts makes runs of more than one burst.
# The radio books the run over ids (liveness, counters, receive energy)
# and then makes one call into this table with the run's messages, each
# burst's live receivers' ids, in receiver order, and its id -> device
# map.  Each entry gives exactly the outcome of running the kind's
# handler on every receiver's protocol, burst by burst, in that order,
# and looks up only the devices it needs: an addressed kind
# (:func:`_to_target`) only its target's.  Entries are module-level
# functions (or partials of them), so a radio holding
# :func:`dispatch_burst` pickles with checkpoints.

#: The fewest receivers a ``DataReport`` run must reach to be snooped
#: as id columns, and the fewest snooped samples it must then hold to be
#: applied in one fleet sweep rather than sample by sample (same outcome
#: either way).  The column passes and the sweep have a fixed numpy
#: cost that short runs do not earn back.  churn-n400 (snoop
#: probability 0.05, runs of one burst, at most 22 receivers) ran in
#: 2.06 s (median of 6, 2-vCPU VM) with every run swept and 1.70 s with
#: runs under 16 samples applied inline; with runs of 16 or more
#: receivers taken as columns it ran 2.0% slower than with none (1.783
#: against 1.748 s, median of 8 alternated pairs, slower in 7), as a
#: burst's draws cost the same either way.  64 lies above any single
#: burst at the paper's degree 12 (out-degrees reach 20-25 at N=400
#: and 2000), and far below a §6.1 training tick (about 12 samples per
#: node), which keeps the columns and the sweep.
SWEEP_MIN_SAMPLES = 64


def dispatch_burst(messages, lives, devices) -> None:
    """Run one delivery run's protocol handlers (the radio's entry).

    Keyed on the exact message type (protocol messages are never
    subclassed, and a wave holds one type); query traffic has no entry
    and is ignored here.
    """
    burst = _BURSTS.get(type(messages[0]))
    if burst is not None:
        burst(messages, lives, devices)


def _to_target(handler, address: str, messages, lives, devices) -> None:
    """A unicast on the broadcast medium: only the receiver named by the
    message's ``address`` field acts, if it is live; its overheard
    copies were booked by the radio and need nothing more.  A run of
    a kind whose handlers send is always one burst."""
    (message,), (live,) = messages, lives
    target = getattr(message, address)
    if target in live:
        node = devices[target].protocol
        if node is not None:
            handler(node, message)


def _to_each(handler, messages, lives, devices) -> None:
    """A broadcast: every receiver's handler, in receiver order (one
    burst, as for :func:`_to_target`)."""
    (message,), (live,) = messages, lives
    for rid in live:
        node = devices[rid].protocol
        if node is not None:
            handler(node, message)


def _burst_data_report(messages, lives, devices) -> None:
    """Snoop overheard measurement reports (§3).

    Per receiver this is: draw the snoop decision from its own
    ``protocol.<id>`` stream, read its own value, feed the sample to
    its cache, and pay the §6.2 CPU charge.  The steps run as passes
    over the whole run: the draws in burst and receiver order (each
    from its own stream), one read of the snoopers' values, the samples
    applied in that order, then the CPU charges in the same order, so
    every battery, ledger cell and ledger total sums as it would
    receiver by receiver (no charge depends on the cache's decision,
    nor any decision on a charge).

    A run of at least :data:`SWEEP_MIN_SAMPLES` receivers on a runtime
    with a cache fleet takes these passes over id columns
    (:func:`_snoop_columns`); any other run takes them over lists.
    Either way the samples are applied before the delivery event
    returns: at least :data:`SWEEP_MIN_SAMPLES` of them on a runtime
    with a fleet in one sweep (:meth:`BatchedObservationRouter.flush
    <repro.core.round_batch.BatchedObservationRouter.flush>`), fewer, or
    any on a runtime without one, sample by sample through
    :meth:`ProtocolNode._record_observation`.
    """
    if sum(map(len, lives)) >= SWEEP_MIN_SAMPLES:
        radio = _radio_of(lives, devices)
        if radio is not None and radio.observation_router is not None:
            _snoop_columns(radio, messages, lives, devices)
            return
    snoopers, neighbors, values = [], [], []
    for message, live in zip(messages, lives):
        # Only model raw measurements the reporter took itself;
        # estimates produced on behalf of other nodes would poison the
        # cache.
        if message.estimated or message.origin != message.sender:
            continue
        sender = message.sender
        before = len(snoopers)
        for rid in live:
            node = devices[rid].protocol
            if node is None:
                continue
            probability = node.snoop_probability
            if probability <= 0 or rid == sender:
                continue
            if probability >= 1.0 or node._rng.random() < probability:
                snoopers.append(node)
        count = len(snoopers) - before
        neighbors += [sender] * count
        values += [message.value] * count
    if snoopers:
        _apply_snoops(snoopers, neighbors, _own_values(snoopers), values)


def _radio_of(lives, devices):
    """The radio of the first receiver that runs a protocol, if any."""
    for live in lives:
        for rid in live:
            node = devices[rid].protocol
            if node is not None:
                return node.radio
    return None


def _apply_snoops(snoopers: list, neighbors: list, own_values, values: list) -> None:
    """Feed each snooper's sample to its cache, then charge the CPU
    cost, sample by sample in sample order: the route of every run
    with fewer than :data:`SWEEP_MIN_SAMPLES` snoopers, and of every
    run on a runtime without a fleet."""
    for node, sender, own, value in zip(snoopers, neighbors, own_values, values):
        node._record_observation(sender, own, value)
    snoopers[0].radio.charge_cpu_each([node.node_id for node in snoopers])


def _snoop_columns(radio, messages, lives, devices) -> None:
    """:func:`_burst_data_report` of a long run on a runtime with a
    cache fleet, as one pass per step over id columns.

    The run becomes three columns once: receiver, sender and reported
    value per (burst, receiver).  The snoop mask takes every receiver
    with probability ``>= 1`` and none with ``<= 0`` (nor a sender
    hearing itself, nor a receiver without a protocol); only the
    others draw, from their own streams, in burst and receiver order.
    The snoopers' values are read in one gather, their samples applied
    in one sweep, and their CPU cost charged in one columnar draw
    (:meth:`Radio.charge_cpu_each
    <repro.network.radio.Radio.charge_cpu_each>` of an id array).
    """
    kept = [
        (message, live)
        for message, live in zip(messages, lives)
        if live and not message.estimated and message.origin == message.sender
    ]
    if not kept:
        return
    sizes = [len(live) for _, live in kept]
    size = sum(sizes)
    rids = np.fromiter(chain.from_iterable(live for _, live in kept), np.int64, size)
    senders = np.repeat(
        np.fromiter((message.sender for message, _ in kept), np.int64, len(kept)), sizes
    )
    reported = np.repeat(
        np.fromiter((message.value for message, _ in kept), np.float64, len(kept)), sizes
    )
    # Each distinct receiver's protocol and snoop probability, read once.
    heard = np.zeros(int(rids.max()) + 1, dtype=bool)
    heard[rids] = True
    protocols = {rid: devices[rid].protocol for rid in np.flatnonzero(heard).tolist()}
    probability = np.zeros(heard.size)
    for rid, node in protocols.items():
        if node is not None:
            probability[rid] = node.snoop_probability
    p = probability[rids]
    other = rids != senders
    snoop = other & (p >= 1.0)
    # NaN draws and never snoops, as ``random() < nan`` is false.
    drawing = np.flatnonzero(other & ~(p <= 0) & ~(p >= 1.0))
    for i, rid, chance in zip(drawing.tolist(), rids[drawing].tolist(), p[drawing].tolist()):
        if protocols[rid]._rng.random() < chance:
            snoop[i] = True
    taken = np.flatnonzero(snoop)
    if taken.size < SWEEP_MIN_SAMPLES:
        if taken.size:
            snoopers = [protocols[rid] for rid in rids[taken].tolist()]
            _apply_snoops(
                snoopers,
                senders[taken].tolist(),
                _own_values(snoopers),
                reported[taken].tolist(),
            )
        return
    ids = rids[taken]
    radio.observation_router.flush(
        ids, senders[taken], _own_value_column(protocols, ids), reported[taken]
    )
    radio.charge_cpu_each(ids)


def _own_value_column(protocols: dict, ids: np.ndarray) -> np.ndarray:
    """The current value of each of ``ids``, read once per distinct
    node (one gather when the readers allow it) and spread over the
    column."""
    distinct = np.flatnonzero(np.bincount(ids))
    values = np.zeros(distinct[-1] + 1)
    values[distinct] = _own_values([protocols[rid] for rid in distinct.tolist()])
    return values[ids]


def _own_values(nodes: list) -> list[float]:
    """Each node's current value; one gather when the readers allow it."""
    read_many = getattr(nodes[0].value_fn, "read_many", None)
    if read_many is not None:
        values = read_many([node.value_fn for node in nodes])
        if values is not None:
            return values
    return [node.value_fn() for node in nodes]


_BURSTS = {
    DataReport: _burst_data_report,
    Heartbeat: partial(_to_target, ProtocolNode._on_heartbeat, "target"),
    HeartbeatReply: partial(_to_target, ProtocolNode._on_heartbeat_reply, "target"),
    Accept: partial(_to_target, ProtocolNode._on_accept, "representative"),
    Recall: partial(_to_target, ProtocolNode._on_recall, "target"),
    StayActive: partial(_to_target, ProtocolNode._on_stay_active, "target"),
    Invitation: partial(_to_each, ProtocolNode._on_invitation),
    CandidateList: partial(_to_each, ProtocolNode._on_candidate_list),
    AckRepresenting: partial(_to_each, ProtocolNode._on_ack_representing),
    Resign: partial(_to_each, ProtocolNode._on_resign),
}
