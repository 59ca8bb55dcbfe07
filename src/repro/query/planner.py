"""Energy-based query planning (§3.1's optimizer remark).

The paper observes that embedded query processors "can provide
energy-based query optimization because of their tight integration with
the node's operations".  :class:`QueryPlanner` is that optimizer for
snapshot queries: given a query, it estimates the transmission cost of
both execution modes from information a base station legitimately has —
node locations (carried by the Accept messages), the current snapshot
structure, and the radio ranges — and picks the cheaper plan.

The estimates deliberately ignore measurement values (the planner
cannot see live data): a value predicate makes both estimates upper
bounds, which keeps the regular-vs-snapshot comparison fair.

The planner also applies the §3.1 per-query-threshold rules: a
``USE SNAPSHOT WITH ERROR t`` query is routed to the coarsest usable
multi-resolution view, and a query tighter than every available
snapshot is flagged as needing its own election.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.multi_resolution import MultiResolutionSnapshot
from repro.core.protocol import ProtocolNode
from repro.core.runtime import SnapshotRuntime
from repro.core.status import NodeMode
from repro.network.topology import Topology
from repro.query.ast import Query
from repro.query.executor import QueryExecutor, QueryResult
from repro.query.spatial import Region

__all__ = ["QueryPlan", "QueryCostEstimate", "QueryPlanner"]

#: Byte model of the dispatch cost estimates, in the style of the
#: distributed query-cost exemplars: a fixed per-message envelope plus
#: eight bytes per numeric field and one per flag.
MESSAGE_HEADER_BYTES = 12
FIELD_BYTES = 8
FLAG_BYTES = 1

#: One drill-through measurement report: query id, origin, value + the
#: ``estimated`` flag.
REPORT_BYTES = MESSAGE_HEADER_BYTES + 3 * FIELD_BYTES + FLAG_BYTES

#: One partial aggregate: query id, count, total, minimum, maximum.
AGGREGATE_BYTES = MESSAGE_HEADER_BYTES + 5 * FIELD_BYTES


@dataclass(frozen=True)
class QueryCostEstimate:
    """Pre-dispatch resource estimate for one query execution.

    The serving front-end admits or rejects queries on these numbers
    (cost-based admission): everything is computable from information a
    base station legitimately has — node locations, the snapshot
    structure, radio ranges — before any message is sent.

    Attributes
    ----------
    use_snapshot:
        The execution mode the estimate describes.
    responders:
        Nodes expected to produce measurements (upper bound: tree
        membership and model misses can only shrink it).
    nodes_touched:
        Expected distinct participants — responders plus routing nodes
        on their tree paths, capped at the alive population.
    bytes_on_network:
        Expected bytes transmitted over all sampling rounds.
    selectivity:
        Fraction of alive nodes inside the query's spatial predicate.
    transmissions:
        Expected transmissions per sampling round (the
        :class:`QueryPlan` cost model).
    rounds:
        Sampling rounds the acquisition clauses imply.
    """

    use_snapshot: bool
    responders: int
    nodes_touched: int
    bytes_on_network: float
    selectivity: float
    transmissions: float
    rounds: int

    @property
    def total_transmissions(self) -> float:
        """Transmissions over the query's whole lifetime."""
        return self.transmissions * self.rounds


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision and its cost model.

    Attributes
    ----------
    use_snapshot:
        The chosen execution mode.
    estimated_regular_cost:
        Estimated transmissions per round for regular execution.
    estimated_snapshot_cost:
        Estimated transmissions per round for snapshot execution
        (``inf`` when the snapshot cannot serve the query).
    needs_election:
        The query's error threshold is tighter than every available
        snapshot; it must trigger an election before snapshot execution.
    reason:
        Human-readable justification.
    estimate:
        The full pre-dispatch estimate of the chosen mode, from the same
        census as the costs (equal to ``estimate_cost(query,
        use_snapshot=plan.use_snapshot)``).
    """

    use_snapshot: bool
    estimated_regular_cost: float
    estimated_snapshot_cost: float
    needs_election: bool
    reason: str
    estimate: QueryCostEstimate


class QueryPlanner:
    """Chooses between regular and snapshot execution by estimated cost."""

    def __init__(
        self,
        runtime: SnapshotRuntime,
        executor: Optional[QueryExecutor] = None,
        multi: Optional[MultiResolutionSnapshot] = None,
    ) -> None:
        self.runtime = runtime
        self.executor = executor if executor is not None else QueryExecutor(runtime)
        self.multi = multi
        #: ``(topology, mean hops)`` of the last topology seen: ranges are
        #: fixed at construction, and mobility installs a new object.
        self._hops: Optional[tuple[Topology, float]] = None

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------

    def _mean_hops(self) -> float:
        """Expected tree-path length: mean pairwise distance over range.

        Computed once per :class:`Topology` object.
        """
        topology = self.runtime.topology
        if self._hops is None or self._hops[0] is not topology:
            if not len(topology):
                raise ValueError(
                    "cannot estimate hop counts over an empty topology "
                    "(no nodes, hence no transmission ranges)"
                )
            reach = min(topology.range_of(node) for node in topology.node_ids)
            # expected distance between two uniform points on the unit
            # square is ~0.52; every hop covers at most one range
            self._hops = (topology, max(1.0, 0.52 / reach))
        return self._hops[1]

    @staticmethod
    def _member_covers(node: ProtocolNode, region: Region) -> bool:
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

    def _census(self, query: Query) -> tuple[int, int, int]:
        """``(regular responders, snapshot responders, alive nodes)``.

        The sizes of :meth:`regular_responders`,
        :meth:`snapshot_responders` and ``alive_ids()``, from columns:
        the regular and alive counts from the liveness mask and the
        region's mask over the topology coordinates, the snapshot count
        as the distinct owners of the executor's cover rows inside the
        region.
        """
        runtime = self.runtime
        topology = runtime.topology
        region = query.region
        alive = runtime.radio.devices.alive_mask()
        inside = region.contains_mask(topology.xs, topology.ys)
        regular = int(np.count_nonzero(inside & alive))
        owner, _, x, y = self.executor.cover()
        snapshot = len(set(owner[region.contains_mask(x, y)].tolist()))
        return regular, snapshot, int(np.count_nonzero(alive))

    def regular_responders(self, query: Query) -> frozenset[int]:
        """Alive nodes inside the spatial predicate (regular execution).

        A value predicate can only shrink the actual responder set, so
        this is an upper bound on who reports.
        """
        topology = self.runtime.topology
        return frozenset(
            node_id
            for node_id in self.runtime.alive_ids()
            if query.region.contains(*topology.position(node_id))
        )

    def snapshot_responders(self, query: Query) -> frozenset[int]:
        """Non-passive alive nodes covering the region (snapshot execution).

        A node covers the query when its own location matches or, for a
        representative, when any member location learned from the
        Accept messages matches (§3.1).  Tree membership, value
        predicates and model-estimate misses can only shrink the actual
        responder set, so the planned set is a superset of the
        executed one (property-tested in ``tests/query``).
        """
        region = query.region
        return frozenset(
            node_id
            for node_id, node in self.runtime.nodes.items()
            if node.alive
            and node.mode is not NodeMode.PASSIVE
            and (region.contains(*node.location) or self._member_covers(node, region))
        )

    def _transmissions_per_round(self, query: Query, responders: int) -> float:
        if query.is_aggregate:
            # TAG: one message per participant; routers shared
            return responders + self._mean_hops()
        return responders * (1.0 + self._mean_hops())

    def estimate_cost(
        self, query: Query, use_snapshot: Optional[bool] = None
    ) -> QueryCostEstimate:
        """Full pre-dispatch estimate for ``query`` in one execution mode.

        ``use_snapshot`` defaults to the mode the query itself asks for;
        the serving front-end passes the planned mode.  Bytes follow the
        distributed query-cost byte model (header + fields per message);
        node counts are capped at the alive population.
        """
        if use_snapshot is None:
            use_snapshot = query.use_snapshot
        return self._estimate(query, use_snapshot, self._census(query))

    def _estimate(
        self, query: Query, use_snapshot: bool, census: tuple[int, int, int]
    ) -> QueryCostEstimate:
        regular, snapshot, n_alive = census
        responders = snapshot if use_snapshot else regular
        hops = self._mean_hops()
        if query.is_aggregate:
            routers = hops  # one shared path of partial aggregates
            bytes_per_round = responders * REPORT_BYTES + routers * AGGREGATE_BYTES
        else:
            routers = responders * hops  # every bundle forwarded hop-by-hop
            bytes_per_round = responders * (1.0 + hops) * REPORT_BYTES
        return QueryCostEstimate(
            use_snapshot=use_snapshot,
            responders=responders,
            nodes_touched=min(n_alive, responders + math.ceil(routers)),
            bytes_on_network=bytes_per_round * query.rounds,
            selectivity=regular / n_alive if n_alive else 0.0,
            transmissions=self._transmissions_per_round(query, responders),
            rounds=query.rounds,
        )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(self, query: Query) -> QueryPlan:
        """Choose the cheaper execution mode for ``query``.

        An explicit ``USE SNAPSHOT`` is treated as advisory: the
        planner may still run regularly when the snapshot would not be
        cheaper (e.g. a tiny region containing one unrepresented node),
        and conversely a plain query is upgraded to snapshot execution
        when that saves transmissions and the snapshot's threshold
        permits it.  The plan carries the chosen mode's
        :class:`QueryCostEstimate`, from the same one census.
        """
        census = self._census(query)
        regular, snapshot, _ = census
        regular_cost = self._transmissions_per_round(query, regular)
        needs_election = False
        snapshot_threshold_ok = True

        if query.snapshot_threshold is not None:
            if self.multi is not None:
                view = self.multi.view_for_threshold(query.snapshot_threshold)
                needs_election = view is None
            else:
                snapshot_threshold_ok = (
                    query.snapshot_threshold >= self.runtime.config.threshold
                )
                needs_election = not snapshot_threshold_ok

        if needs_election:
            return QueryPlan(
                use_snapshot=False,
                estimated_regular_cost=regular_cost,
                estimated_snapshot_cost=math.inf,
                needs_election=True,
                reason=(
                    f"query threshold {query.snapshot_threshold} is tighter "
                    f"than every available snapshot; answering regularly "
                    f"(or elect at the tighter threshold first)"
                ),
                estimate=self._estimate(query, False, census),
            )

        snapshot_cost = self._transmissions_per_round(query, snapshot)
        use_snapshot = snapshot_cost < regular_cost
        if use_snapshot:
            reason = (
                f"snapshot execution (~{snapshot_cost:.1f} tx/round) beats "
                f"regular (~{regular_cost:.1f} tx/round)"
            )
        else:
            reason = (
                f"regular execution (~{regular_cost:.1f} tx/round) is not "
                f"beaten by the snapshot (~{snapshot_cost:.1f} tx/round)"
            )
        return QueryPlan(
            use_snapshot=use_snapshot,
            estimated_regular_cost=regular_cost,
            estimated_snapshot_cost=snapshot_cost,
            needs_election=False,
            reason=reason,
            estimate=self._estimate(query, use_snapshot, census),
        )

    def rewrite(self, query: Query, plan: QueryPlan) -> Query:
        """Rewrite ``query`` to the mode ``plan`` chose.

        When a :class:`MultiResolutionSnapshot` resolved the query's
        threshold to a view, the threshold is *dropped* from the planned
        query: the planner already routed the query to a usable
        resolution, and keeping the raw threshold would trip the
        executor's single-snapshot reuse check whenever the resolved
        view is tighter than the runtime's own election threshold.
        """
        from dataclasses import replace

        keep_threshold = plan.use_snapshot and self.multi is None
        return replace(
            query,
            use_snapshot=plan.use_snapshot,
            snapshot_threshold=query.snapshot_threshold if keep_threshold else None,
        )

    def execute(self, query: Query, **kwargs) -> tuple[QueryPlan, QueryResult]:
        """Plan, rewrite the query to the chosen mode, and execute it."""
        plan = self.plan(query)
        result = self.executor.execute(self.rewrite(query, plan), **kwargs)
        return plan, result
