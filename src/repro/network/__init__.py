"""Network substrate: placement, radio, messages, link models, counters.

Models the paper's simulated sensor network: nodes on the unit square
with a unit-disk radio of configurable transmission range, a broadcast
medium with per-link Bernoulli message loss (``P_loss``), asymmetric
neighbor relations, and full per-node message accounting.
"""

from repro.network.links import (
    PERFECT_LINKS,
    DistanceLoss,
    GlobalLoss,
    LossModel,
    PerLinkLoss,
)
from repro.network.messages import (
    Accept,
    AckRepresenting,
    AggregateReport,
    CandidateList,
    DataReport,
    Heartbeat,
    HeartbeatReply,
    Invitation,
    Message,
    PROTOCOL_MESSAGE_TYPES,
    Recall,
    Resign,
    StayActive,
)
from repro.network.node import NetworkNode
from repro.network.radio import Radio
from repro.network.stats import MessageStats
from repro.network.topology import Topology, uniform_random_topology

__all__ = [
    "Accept",
    "AckRepresenting",
    "AggregateReport",
    "CandidateList",
    "DataReport",
    "DistanceLoss",
    "GlobalLoss",
    "Heartbeat",
    "HeartbeatReply",
    "Invitation",
    "LossModel",
    "Message",
    "MessageStats",
    "NetworkNode",
    "PERFECT_LINKS",
    "PROTOCOL_MESSAGE_TYPES",
    "PerLinkLoss",
    "Radio",
    "Recall",
    "Resign",
    "StayActive",
    "Topology",
    "uniform_random_topology",
]
