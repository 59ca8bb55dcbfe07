"""The reference oracle of the planner's census: node-by-node walks.

``QueryPlanner._census`` counts a query's regular and snapshot
responders from columns (the liveness mask, the region's mask over the
topology coordinates, the executor's cover rows).  These walks build
the same sets from the protocol nodes one at a time, so a test can
compare the census against them, and the executed responders against
the planned ones.
"""

from __future__ import annotations

from repro.core.protocol import ProtocolNode
from repro.core.status import NodeMode
from repro.query.ast import Query
from repro.query.spatial import Region

__all__ = ["member_covers", "regular_responders", "snapshot_responders"]


def member_covers(node: ProtocolNode, region: Region) -> bool:
    """Whether a representative holds a member location in ``region``.

    The locations are the ones learned from the Accept messages
    (§3.1); only ACTIVE nodes answer for members.
    """
    if node.mode is not NodeMode.ACTIVE:
        return False
    contains = region.contains
    for info in node.represented.values():
        location = info.location
        if location is not None and contains(*location):
            return True
    return False


def regular_responders(runtime, query: Query) -> frozenset[int]:
    """Alive nodes inside the spatial predicate (regular execution).

    A value predicate can only shrink the actual responder set, so
    this is an upper bound on who reports.
    """
    topology = runtime.topology
    return frozenset(
        node_id
        for node_id in runtime.alive_ids()
        if query.region.contains(*topology.position(node_id))
    )


def snapshot_responders(runtime, query: Query) -> frozenset[int]:
    """Non-passive alive nodes covering the region (snapshot execution).

    A node covers the query when its own location matches or, for a
    representative, when any member location learned from the
    Accept messages matches (§3.1).  Tree membership, value
    predicates and model-estimate misses can only shrink the actual
    responder set, so the planned set is a superset of the
    executed one.
    """
    region = query.region
    return frozenset(
        node_id
        for node_id, node in runtime.nodes.items()
        if node.alive
        and node.mode is not NodeMode.PASSIVE
        and (region.contains(*node.location) or member_covers(node, region))
    )
