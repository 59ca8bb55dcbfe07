"""TAG-style aggregation trees (§6.2).

For each query a *sink* node floods a request through the network; the
flood induces a tree rooted at the sink (every node's parent is the
neighbor it first heard the request from), and measurements are
partially aggregated on their way up — the in-network aggregation of
Madden et al.'s TAG, which the paper uses verbatim ("using the flooding
mechanism described in [11] an aggregation tree was formed").

The flood is simulated combinatorially, level by level, with each hop
subject to the same per-link loss model as the radio: a node joins the
tree in the first round it hears any re-broadcast.  When several
same-round parents are heard the tie-break prefers nodes in ``prefer``
(the §3.1 remark that routing can favor representatives, exercised by
the routing ablation) and then the smallest id, keeping trees
deterministic for a given RNG state.  A lossy flood samples each
broadcaster's links to its pending (alive, not yet joined) out-neighbors
with one :meth:`~repro.network.links.LossModel.loss_vector` call, in
``out_neighbors`` order.  Over a lossless model
(:attr:`~repro.network.links.LossModel.lossless`) the flood is a plain
BFS that samples no link: a lossless ``loss_vector`` draws nothing, so
the tree and the RNG state are the ones the sampled flood leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Iterable, Optional

import numpy as np

from repro.network.links import PERFECT_LINKS, LossModel
from repro.network.topology import Topology

__all__ = ["AggregationTree"]


@dataclass(frozen=True)
class AggregationTree:
    """A routing tree rooted at ``sink``.

    Attributes
    ----------
    sink:
        The querying node.
    parents:
        ``node -> parent`` for every node that joined the tree (the
        sink maps to itself).
    depths:
        Hop distance from the sink for every member.
    """

    sink: int
    parents: dict[int, int]
    depths: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Memo table, not part of the value: the serving front-end
        # calls ``routers_for`` once per admitted query against the
        # same shared tree, so paths are resolved at most once per node
        # instead of re-walked per member per call.
        object.__setattr__(self, "_path_cache", {})

    @classmethod
    def build(
        cls,
        topology: Topology,
        sink: int,
        alive: AbstractSet[int],
        rng: np.random.Generator,
        loss_model: LossModel = PERFECT_LINKS,
        prefer: AbstractSet[int] = frozenset(),
    ) -> "AggregationTree":
        """Flood from ``sink`` over the alive nodes and derive the tree.

        Parameters
        ----------
        topology:
            Placement and ranges; floods travel over directed radio links.
        sink:
            Root of the tree; must be alive.
        alive:
            Nodes that can hear and re-broadcast the flood.
        rng:
            Samples per-link delivery during the flood.
        loss_model:
            The same loss model as the data radio.
        prefer:
            Nodes favored as parents when several are heard in the same
            round (the representative-routing option).
        """
        if sink not in alive:
            raise ValueError(f"sink {sink} is not alive")
        lossless = loss_model.lossless
        out_neighbors = topology.out_neighbors
        parents: dict[int, int] = {sink: sink}
        depths: dict[int, int] = {sink: 0}
        # Alive nodes that have not joined yet: the only ones a
        # re-broadcast can recruit (and the only links a lossy flood
        # samples).
        pending = set(alive)
        pending.discard(sink)
        frontier = [sink]
        depth = 0
        while frontier:
            depth += 1
            # The parent each pending node picks among the broadcasters
            # it heard this round.  The frontier is in ascending id
            # order, so the first broadcaster heard is the smallest id;
            # a later one replaces it only by being the first preferred
            # one.  A lossy flood samples every pending link in frontier
            # and neighbor order.
            heard: dict[int, int] = {}
            for broadcaster in frontier:
                if lossless:
                    hearers = pending.intersection(out_neighbors(broadcaster))
                else:
                    links = [r for r in out_neighbors(broadcaster) if r in pending]
                    if not links:
                        continue
                    outcomes = loss_model.loss_vector(broadcaster, links, rng)
                    hearers = [r for r, ok in zip(links, outcomes) if ok]
                if broadcaster in prefer:
                    for receiver in hearers:
                        current = heard.get(receiver)
                        if current is None or current not in prefer:
                            heard[receiver] = broadcaster
                else:
                    for receiver in hearers:
                        heard.setdefault(receiver, broadcaster)
            frontier = sorted(heard)
            for receiver in frontier:
                parents[receiver] = heard[receiver]
                depths[receiver] = depth
            pending.difference_update(frontier)
        return cls(sink=sink, parents=parents, depths=depths)

    @cached_property
    def members(self) -> frozenset[int]:
        """Every node that joined the tree (heard the query).

        Built once per tree; the hot paths test ``parents`` directly.
        """
        return frozenset(self.parents)

    def parent(self, node: int) -> Optional[int]:
        """The node's parent, or ``None`` if it never joined."""
        return self.parents.get(node)

    def path_to_sink(self, node: int) -> list[int]:
        """Nodes from ``node`` (inclusive) up to the sink (inclusive).

        Paths are memoized per node (and every suffix of a discovered
        path is memoized with it), so repeated calls — ``routers_for``
        over many responder sets, drill-through transmission — cost
        amortized O(path length) instead of one full walk each.

        Raises
        ------
        KeyError
            If ``node`` is not a member of the tree.
        """
        if node not in self.parents:
            raise KeyError(f"node {node} is not in the tree")
        cache: dict[int, tuple[int, ...]] = self._path_cache
        cached = cache.get(node)
        if cached is None:
            walk = [node]
            tail: tuple[int, ...] = ()
            while walk[-1] != self.sink:
                parent = self.parents[walk[-1]]
                hit = cache.get(parent)
                if hit is not None:
                    tail = hit
                    break
                walk.append(parent)
            cached = tuple(walk) + tail
            for offset in range(len(walk)):
                cache[walk[offset]] = cached[offset:]
        return list(cached)

    def routers_for(self, responders: Iterable[int]) -> frozenset[int]:
        """Non-responding nodes that must forward the responders' data.

        The union of all tree paths from responders to the sink,
        excluding the responders themselves and the sink.
        """
        responder_set = set(responders)
        routers: set[int] = set()
        for responder in responder_set:
            if responder not in self.parents:
                continue
            routers.update(self.path_to_sink(responder)[1:-1])
        routers.discard(self.sink)
        return frozenset(routers - responder_set)
