"""The network snapshot: a global view over the protocol state.

A *snapshot* is the set of representative (ACTIVE) nodes together with
the assignment of every node to its representative (§3, Figure 1).
:class:`SnapshotView` captures that view from the per-node protocol
state, exactly the way an observer walking the network would, and
implements the paper's spurious-representative audit:

    "node N_i may never hear the messages sent by node N_j ...  It may
    thus assume that it still represents node N_j while the network has
    elected another representative.  This can be detected and corrected
    by having time-stamps describing the time that a node N_i was
    elected as the representative of N_j and using the latest
    representative based on these time-stamps."  (§3)

A representative's claim on node ``j`` is *stale* when ``j`` itself
points to a different (or no) representative; ``audit`` counts such
claims and the representatives carrying them (Figure 13's metric).
Resolving a conflict by the freshest election timestamp keeps exactly
each node's own pointer, which is :attr:`SnapshotView.assignment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.protocol import ProtocolNode
from repro.core.status import NodeMode

__all__ = ["SnapshotView", "SpuriousAudit"]


@dataclass(frozen=True)
class SpuriousAudit:
    """Result of the stale-claim audit.

    Attributes
    ----------
    stale_claims:
        ``(representative, member)`` pairs where the member no longer
        points back at the representative.
    spurious_representatives:
        Representatives carrying at least one stale claim.
    """

    stale_claims: tuple[tuple[int, int], ...]
    spurious_representatives: tuple[int, ...]

    @property
    def n_spurious(self) -> int:
        """Number of spurious representatives (Figure 13's y-axis)."""
        return len(self.spurious_representatives)


@dataclass(frozen=True)
class SnapshotView:
    """An immutable capture of the snapshot structure.

    Attributes
    ----------
    representatives:
        Ids of ACTIVE nodes, ascending.
    assignment:
        ``node -> representative`` for every alive node (self-mapping
        for representatives and unresolved nodes).
    claims:
        ``representative -> members it believes it represents``.
    modes:
        Each alive node's settled mode.
    """

    representatives: tuple[int, ...]
    assignment: Mapping[int, int]
    claims: Mapping[int, tuple[int, ...]]
    modes: Mapping[int, NodeMode] = field(default_factory=dict)

    @classmethod
    def capture(cls, nodes: Mapping[int, ProtocolNode]) -> "SnapshotView":
        """Read the current snapshot out of the protocol nodes.

        Dead nodes are excluded entirely.  A node still UNDEFINED (e.g.
        mid-re-election) is conservatively treated as self-represented:
        it would answer queries itself, which is the protocol's bias
        (Rule-4 defaults to ACTIVE).
        """
        representatives = []
        assignment: dict[int, int] = {}
        claims: dict[int, tuple[int, ...]] = {}
        modes: dict[int, NodeMode] = {}
        for node_id in sorted(nodes):
            node = nodes[node_id]
            if not node.alive:
                continue
            modes[node_id] = node.mode
            if node.mode is NodeMode.PASSIVE and node.representative_id is not None:
                assignment[node_id] = node.representative_id
            else:
                assignment[node_id] = node_id
            if node.mode is not NodeMode.PASSIVE:
                representatives.append(node_id)
                claims[node_id] = tuple(sorted(node.represented))
        return cls(
            representatives=tuple(representatives),
            assignment=assignment,
            claims=claims,
            modes=modes,
        )

    @property
    def size(self) -> int:
        """The snapshot size ``n1`` — the number of representatives."""
        return len(self.representatives)

    @property
    def n_nodes(self) -> int:
        """Alive nodes covered by this view."""
        return len(self.assignment)

    def fraction(self) -> float:
        """Snapshot size as a fraction of the alive network."""
        if not self.assignment:
            return 0.0
        return self.size / self.n_nodes

    def members_of(self, representative: int) -> tuple[int, ...]:
        """Nodes whose own pointer selects ``representative`` (incl. itself)."""
        return tuple(
            sorted(
                node
                for node, rep in self.assignment.items()
                if rep == representative
            )
        )

    def audit(self) -> SpuriousAudit:
        """Find stale claims and the spurious representatives holding them."""
        stale: list[tuple[int, int]] = []
        spurious: list[int] = []
        for representative, members in sorted(self.claims.items()):
            bad = [
                member
                for member in members
                if self.assignment.get(member) != representative
            ]
            if bad:
                spurious.append(representative)
                stale.extend((representative, member) for member in bad)
        return SpuriousAudit(
            stale_claims=tuple(stale),
            spurious_representatives=tuple(spurious),
        )
