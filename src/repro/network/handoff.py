"""Boundary-crossing radio deliveries between simulation shards.

When the topology is partitioned across shard workers (see
``simulation.sharded``), a broadcast whose unit-disk neighborhood spans
a shard boundary cannot schedule the remote receivers' delivery on the
sender's local event queue.  Instead the sending shard emits a
:class:`RadioHandoff` — the absolute arrival time, the sender-minted
lineage stamp, the message and the remote ``(receiver, overheard)``
pairs — and the controller routes it to each owning shard, which
re-inserts it verbatim via :meth:`~repro.network.radio.Radio.receive_handoff`.

Because loss is sampled entirely on the sender side (from the sender's
own ``radio.<id>`` stream) and the stamp is shared by every fragment of
the same transmission, the receiving shards' queue entries merge back
into the single delivery event a single-process run would hold — the
property the shard-conformance suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.network.messages import Message

__all__ = ["RadioHandoff", "split_by_owner"]


@dataclass(frozen=True)
class RadioHandoff:
    """One transmission's boundary-crossing fragment.

    Attributes
    ----------
    time:
        Absolute simulated arrival time (send time + radio latency).
    stamp:
        The sending shard's lineage stamp for the delivery event; the
        receiving shard inserts it unchanged so tie-breaking matches the
        single-process insertion order.
    message:
        The transmitted message (loss already applied by the sender).
    receivers:
        ``(receiver_id, overheard)`` pairs for receivers the sending
        shard does not own, in ascending receiver order.
    """

    time: float
    stamp: Optional[tuple]
    message: Message
    receivers: tuple[tuple[int, bool], ...]


def split_by_owner(
    handoff: RadioHandoff, owner_of: dict[int, int]
) -> dict[int, RadioHandoff]:
    """Split one handoff into per-destination-shard fragments.

    Receiver order within each fragment preserves the original
    (ascending-id) order, so concatenating fragments by receiver rank
    reconstructs the reference delivery's pending list exactly.
    """
    by_shard: dict[int, list[tuple[int, bool]]] = {}
    for receiver_id, overheard in handoff.receivers:
        by_shard.setdefault(owner_of[receiver_id], []).append(
            (receiver_id, overheard)
        )
    return {
        shard: RadioHandoff(
            time=handoff.time,
            stamp=handoff.stamp,
            message=handoff.message,
            receivers=tuple(pairs),
        )
        for shard, pairs in by_shard.items()
    }
