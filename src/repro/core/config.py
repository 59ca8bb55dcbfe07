"""Protocol configuration.

Collects every tunable of the snapshot protocol in one frozen value
object.  Defaults follow the paper where it states them (sse metric,
``T = 1``); timing constants are expressed in the same abstract time
units as the simulation and are sized so that one complete election
(four phases plus refinement cascades) settles well within a couple of
time units, as implied by the paper's "up to six messages" budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.metrics import ErrorMetric, SumSquaredError

__all__ = ["ProtocolConfig"]


@dataclass(frozen=True)
class ProtocolConfig:
    """All knobs of the election + maintenance protocol.

    Attributes
    ----------
    threshold:
        The error threshold ``T`` of the representability test.
    metric:
        Error metric ``d``; the paper's experiments all use sse.
    phase_spacing:
        Time between the election phases (invitation → model
        evaluation → initial selection → refinement).
    ack_delay:
        Debounce delay before a representative broadcasts its Rule-3
        acknowledgment, so one broadcast covers all StayActive
        requesters of the round (footnote a of Figure 5).
    max_wait:
        ``MAX_WAIT`` of Rule-4: how long after refinement starts an
        UNDEFINED node waits before the randomized fallback.
    rule4_retry:
        Period between Rule-4 reconsiderations ("WAIT(1) — reconsider
        in next time unit").
    p_wait:
        ``P_wait`` of Rule-4: the probability of *waiting* another
        round instead of going ACTIVE (the paper's
        ``if rand() > P_wait: ACTIVE``).  Each wait re-runs the rule
        loop (re-sending a lost Rule-3 request), so a high value makes
        the refinement robust to message loss at the cost of a longer
        worst-case settle time; the paper leaves the value unstated and
        we default to 0.95.
    reply_window:
        How long a maintenance inviter collects candidate offers before
        selecting a representative.  Must exceed ``offer_batch_delay``
        (plus radio latency) or offers arrive after selection.
    offer_batch_delay:
        How long a responder accumulates concurrently heard maintenance
        invitations before broadcasting one combined candidate list.
        Batching is what keeps Figure 15's per-update message cost
        around 2–4.5 messages per node instead of one offer broadcast
        per (inviter, responder) pair.
    heartbeat_period:
        Period of the passive nodes' heartbeats / lone-active
        invitations (§5.1).
    lone_invite_probability:
        Probability that an ACTIVE node representing only itself
        broadcasts its periodic invitation in a given maintenance round.
        Randomizing prevents the all-inviting deadlock where every lone
        node awaits offers and none responds (the same style of fix as
        Rule-4's ``P_wait``).
    heartbeat_timeout:
        How long a passive node waits for its representative's reply
        before declaring it unreachable and re-electing.
    snoop_probability:
        Probability of feeding an *overheard* data report into the
        model cache (the paper's §6.3 run uses 5%; model-training
        phases use 1.0).
    energy_resign_fraction:
        Battery fraction below which a representative hands off its
        members (§5.1); set to 0 to disable.
    rotation_probability:
        Per-maintenance-round probability that a representative resigns
        to rotate the role, LEACH-style (§5.1); 0 disables.
    selection_policy:
        How a node picks among representation offers: ``"longest-list"``
        (the paper's rule — most candidates, largest id breaks ties) or
        ``"random"`` (a uniformly random offer; the ablation baseline
        showing why consolidation matters).
    member_expiry_periods:
        A representative drops its claim on a member it has not heard a
        heartbeat from for this many heartbeat periods (§3's
        timestamp-based filtering of spurious representation; matters
        under loss and failures).  0 — the default — disables expiry:
        the paper's lifetime experiment relies on representatives
        answering for *dead* members indefinitely, so expiry is opt-in
        (``ChaosConfig`` turns it on).
    """

    threshold: float = 1.0
    metric: ErrorMetric = field(default_factory=SumSquaredError)
    phase_spacing: float = 0.1
    ack_delay: float = 0.05
    max_wait: float = 1.0
    rule4_retry: float = 1.0
    p_wait: float = 0.95
    reply_window: float = 3.0
    offer_batch_delay: float = 2.0
    heartbeat_period: float = 100.0
    heartbeat_timeout: float = 0.5
    lone_invite_probability: float = 0.5
    selection_policy: str = "longest-list"
    member_expiry_periods: float = 0.0
    snoop_probability: float = 1.0
    energy_resign_fraction: float = 0.0
    rotation_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {self.threshold}")
        for name in (
            "phase_spacing",
            "ack_delay",
            "max_wait",
            "rule4_retry",
            "reply_window",
            "offer_batch_delay",
            "heartbeat_period",
            "heartbeat_timeout",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.member_expiry_periods < 0:
            raise ValueError(
                f"member_expiry_periods must be non-negative, got "
                f"{self.member_expiry_periods}"
            )
        if self.selection_policy not in ("longest-list", "random"):
            raise ValueError(
                f"unknown selection_policy {self.selection_policy!r}; "
                f"expected 'longest-list' or 'random'"
            )
        if self.reply_window <= self.offer_batch_delay:
            raise ValueError(
                f"reply_window ({self.reply_window}) must exceed "
                f"offer_batch_delay ({self.offer_batch_delay}), or batched "
                f"offers arrive after the inviter has already selected"
            )
        for name in (
            "p_wait",
            "snoop_probability",
            "energy_resign_fraction",
            "rotation_probability",
            "lone_invite_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
