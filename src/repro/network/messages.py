"""Message taxonomy for the snapshot-query protocol and query engine.

Every radio transmission in the simulation is an instance of a
:class:`Message` subclass.  The election/maintenance messages mirror
Table 2 and Figure 5 of the paper:

=====================  =======================================================
message                paper role
=====================  =======================================================
Invitation             invitation phase — "looking for representatives",
                       carries the sender's current measurement ``x_j(t)``
CandidateList          model-evaluation phase — broadcast of ``Cand_nodes_i``
                       (plus the count of nodes already represented, used
                       during maintenance re-election, §5.1)
Accept                 initial-selection phase — ``N_j`` informs ``N_i`` that
                       it accepts it as representative; carries ``N_j``'s
                       location so representatives can evaluate spatial
                       predicates on behalf of the nodes they represent (§3.1)
Recall                 refinement Rule-2 — "you need not represent me"
StayActive             refinement Rule-3 — "stay ACTIVE for me"
AckRepresenting        Rule-3 acknowledgment — a single broadcast listing all
                       nodes the sender represents (footnote a of Fig. 5)
Heartbeat              maintenance — passive node asks its representative for
                       its estimate, carries the current measurement
HeartbeatReply         maintenance — representative's estimate ``x̂_j(t)``
Resign                 energy-aware hand-off (§5.1) — a drained or rotating
                       representative tells its members to re-elect
=====================  =======================================================

Query-plane messages (``DataReport``, ``AggregateReport``) carry the
TAG-style collection traffic of §6.2 and the §6.1 training reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Message",
    "Invitation",
    "CandidateList",
    "Accept",
    "Recall",
    "StayActive",
    "AckRepresenting",
    "Heartbeat",
    "HeartbeatReply",
    "Resign",
    "DataReport",
    "AggregateReport",
    "PROTOCOL_MESSAGE_TYPES",
]


@dataclass(frozen=True)
class Message:
    """Base class for everything sent over the radio.

    Attributes
    ----------
    sender:
        Id of the transmitting node (filled in by the radio layer).
    kind:
        Class-level name used by counters and traces.  A plain class
        attribute (stamped by ``__init_subclass__``) rather than a
        property: the radio layer reads it once per delivery, which
        made property dispatch measurable in large simulations.
    delivery_label:
        Label of the radio's delivery event for this kind,
        ``deliver:<kind>``, stamped with ``kind``.
    """

    sender: int

    kind = "Message"
    delivery_label = "deliver:Message"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__
        cls.delivery_label = f"deliver:{cls.__name__}"


@dataclass(frozen=True)
class Invitation(Message):
    """A node looking for a representative; carries its current value.

    ``epoch`` identifies the election round the invitation belongs to;
    stale-round replies are discarded.
    """

    value: float
    epoch: int


@dataclass(frozen=True)
class CandidateList(Message):
    """Broadcast of the nodes the sender can represent.

    ``already_representing`` is the number of nodes the sender currently
    represents; during maintenance re-election the chooser ranks offers
    by ``len(candidates) + already_representing`` (§5.1).
    """

    candidates: tuple[int, ...]
    epoch: int
    already_representing: int = 0


@dataclass(frozen=True)
class Accept(Message):
    """``sender`` accepts ``representative`` as its representative."""

    representative: int
    epoch: int
    location: tuple[float, float] = (0.0, 0.0)
    timestamp: float = 0.0


@dataclass(frozen=True)
class Recall(Message):
    """Rule-2: ``sender`` tells the receiver to stop representing it."""

    target: int
    epoch: int


@dataclass(frozen=True)
class StayActive(Message):
    """Rule-3: ``sender`` requires ``target`` to stay ACTIVE."""

    target: int
    epoch: int


@dataclass(frozen=True)
class AckRepresenting(Message):
    """Rule-3 ack: a single broadcast listing everyone the sender represents."""

    represented: tuple[int, ...]
    epoch: int


@dataclass(frozen=True)
class Heartbeat(Message):
    """Maintenance: passive ``sender`` probes its representative ``target``."""

    target: int
    value: float


@dataclass(frozen=True)
class HeartbeatReply(Message):
    """Maintenance: the representative's estimate for ``target``'s value."""

    target: int
    estimate: Optional[float]


@dataclass(frozen=True)
class Resign(Message):
    """A representative stepping down (energy hand-off or LEACH rotation)."""

    members: tuple[int, ...]


@dataclass(frozen=True)
class DataReport(Message):
    """A node's measurement report for a drill-through query."""

    query_id: int
    origin: int
    value: float
    estimated: bool = False


@dataclass(frozen=True)
class AggregateReport(Message):
    """Partial aggregate flowing up the aggregation tree."""

    query_id: int
    count: int
    total: float
    minimum: float
    maximum: float


#: Message classes that belong to the snapshot election/maintenance protocol
#: (used when counting "messages per node" for Table 2 / Figure 15).
PROTOCOL_MESSAGE_TYPES = (
    Invitation,
    CandidateList,
    Accept,
    Recall,
    StayActive,
    AckRepresenting,
    Heartbeat,
    HeartbeatReply,
    Resign,
)
