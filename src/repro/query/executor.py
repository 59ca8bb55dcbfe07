"""Query execution: regular vs snapshot (§3.1 and §6.2).

The executor runs one query against a :class:`~repro.core.SnapshotRuntime`:

* **regular** — every alive node matching the predicates responds; the
  answer flows up a TAG aggregation tree; routing nodes forward it;
* **snapshot** (``USE SNAPSHOT``) — only representatives respond: a
  node provides measurements when "(i) it is not represented and
  satisfies the spatial predicate of the query or (ii) it represents
  another node N_j satisfying the spatial predicate" (§3.1).
  Representatives answer for their members with model estimates and
  evaluate the spatial predicate against the member locations learned
  from the Accept messages.

Participation accounting matches Table 3: a query's participants are
its responders plus the routing nodes on their tree paths (the paper:
"a non-representative node may still be used for routing the aggregate
and this is included in the numbers shown").  Each participant is
charged one transmission per sampling round — the TAG cost model, and
exactly the per-query energy drain of Figure 10's setup.  Responder
reports are sent as real radio messages, so neighbors can snoop them to
fine-tune their models (the 5% snooping of §6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

from repro.core.runtime import SnapshotRuntime
from repro.core.status import NodeMode
from repro.network.messages import AggregateReport, DataReport
from repro.query.aggregation_tree import AggregationTree
from repro.query.ast import Aggregate, Query

__all__ = ["QueryExecutor", "QueryResult"]

#: Buckets of the ``query.coverage`` histogram (coverage is in [0, 1]).
COVERAGE_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: Buckets of the ``query.participants`` histogram (Table 3 counts).
PARTICIPANT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Lossless trees kept per network state: a sink per tree, so a run
#: that draws a random sink for each query cannot hold one per node.
TREE_MEMO_SIZE = 32


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one query execution.

    Attributes
    ----------
    query:
        The executed query.
    sink:
        The node the answer was collected at.
    responders:
        Nodes that produced measurements (their own or their members').
    routers:
        Non-responding nodes that forwarded data toward the sink.
    reports:
        ``origin -> (value, estimated)`` — one entry per node whose
        measurement reached the sink; ``estimated`` marks values a
        representative produced from its model.
    matching_all:
        Nodes (alive or dead) whose ground truth satisfies the query —
        the infinite-battery reference of Figure 10's coverage metric.
    matching_alive:
        The alive subset of ``matching_all``.
    aggregate_value:
        The aggregate answer, or ``None`` for drill-through queries.
    rounds:
        Sampling rounds executed.
    """

    query: Query
    sink: int
    responders: frozenset[int]
    routers: frozenset[int]
    reports: dict[int, tuple[float, bool]]
    matching_all: frozenset[int]
    matching_alive: frozenset[int]
    aggregate_value: Optional[float]
    rounds: int = 1

    @property
    def participants(self) -> frozenset[int]:
        """Responders plus routers — Table 3's per-query node count."""
        return self.responders | self.routers

    @property
    def n_participants(self) -> int:
        """Number of distinct nodes the query touched."""
        return len(self.participants)

    def coverage(self) -> float:
        """Reported matching nodes over all matching nodes (Figure 10).

        A query matching nothing has perfect coverage by convention.
        """
        if not self.matching_all:
            return 1.0
        answered = sum(1 for origin in self.reports if origin in self.matching_all)
        return answered / len(self.matching_all)


class QueryExecutor:
    """Executes queries against a snapshot runtime.

    Parameters
    ----------
    runtime:
        The assembled network.
    prefer_representative_routing:
        Route aggregation trees through representatives when possible
        (the §3.1 routing optimization; off reproduces Table 3's
        "vanilla method").
    """

    def __init__(
        self,
        runtime: SnapshotRuntime,
        prefer_representative_routing: bool = False,
    ) -> None:
        self.runtime = runtime
        self.prefer_representative_routing = prefer_representative_routing
        self._rng = runtime.simulator.random.stream("query")
        self._query_counter = 0
        #: Aggregation trees flooded: every lossy build, and each
        #: lossless one the memo did not already hold.
        self.floods = 0
        #: ``(topology, liveness, {(sink, prefer): tree})``: the lossless
        #: trees of one network state (see :meth:`build_tree`).
        self._trees: Optional[tuple] = None
        #: ``(state key, cover)`` of the last state seen (see :meth:`cover`).
        self._cover: Optional[tuple] = None
        metrics = runtime.simulator.metrics
        self._executed = metrics.counter("query.executed", labels=("snapshot",))
        self._estimates = metrics.counter("cache.estimate", labels=("outcome",))
        self._coverage_hist = metrics.histogram("query.coverage", COVERAGE_BUCKETS)
        self._participants_hist = metrics.histogram(
            "query.participants", PARTICIPANT_BUCKETS
        )

    # ------------------------------------------------------------------

    def execute(
        self,
        query: Query,
        sink: Optional[int] = None,
        rounds: Optional[int] = None,
        charge_energy: bool = True,
        tree: Optional[AggregationTree] = None,
    ) -> QueryResult:
        """Run ``query`` once and return its result.

        Parameters
        ----------
        query:
            The query; ``query.use_snapshot`` selects the execution mode.
        sink:
            Collecting node; a random alive node if omitted (the §6.2
            setup).
        rounds:
            Overrides the sampling rounds implied by the query's
            acquisition clauses.
        charge_energy:
            Whether participants transmit real (energy-charged,
            snoopable) radio messages; disable for pure what-if counts.
        tree:
            A pre-built aggregation tree rooted at ``sink`` to reuse
            instead of flooding a fresh one — the serving front-end
            shares one tree across in-flight queries with the same
            sink (the flood, and its RNG draws, happen once per
            batch).  Must be rooted at the effective sink.
        """
        runtime = self.runtime
        is_alive = runtime.radio.is_alive
        named = "sink"
        if sink is None and tree is not None:
            sink, named = tree.sink, "tree sink"
        if sink is None:
            alive = sorted(runtime.alive_ids())
            if not alive:
                raise RuntimeError("no alive node can act as sink")
            sink = int(alive[self._rng.integers(0, len(alive))])
        elif not is_alive(sink):
            if not runtime.alive_ids():
                raise RuntimeError("no alive node can act as sink")
            raise ValueError(f"{named} {sink} is not alive")
        if tree is not None and tree.sink != sink:
            raise ValueError(
                f"prebuilt tree is rooted at {tree.sink}, not at sink {sink}"
            )
        self._check_threshold_reuse(query)
        self._query_counter += 1
        query_id = self._query_counter
        n_rounds = query.rounds if rounds is None else rounds
        if n_rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {n_rounds}")

        with runtime.simulator.spans.span(
            "query", query_id=query_id, snapshot=query.use_snapshot
        ):
            matching = self._matching_nodes(query)
            flags = runtime.radio.devices.flags
            matching_all = frozenset(matching)
            matching_alive = frozenset(node for node in matching if not flags[node])

            if tree is None:
                tree = self.build_tree(sink, use_snapshot=query.use_snapshot)

            if query.use_snapshot:
                bundles = self._snapshot_bundles(query, tree)
            else:
                bundles = self._regular_bundles(query, matching_alive, tree)
            responders = set(bundles)
            reports: dict[int, tuple[float, bool]] = {}
            for responder in sorted(bundles):
                reports.update(bundles[responder])
            routers = tree.routers_for(responders)

            if charge_energy:
                self._transmit(
                    query, query_id, sink, responders, routers, reports,
                    tree, n_rounds,
                )
                self._hand_off(responders)
            aggregate_value = None
            if query.is_aggregate:
                aggregate_value = self._aggregate(query.aggregate, reports)

            result = QueryResult(
                query=query,
                sink=sink,
                responders=frozenset(responders),
                routers=routers,
                reports=reports,
                matching_all=matching_all,
                matching_alive=matching_alive,
                aggregate_value=aggregate_value,
                rounds=n_rounds,
            )
        self._executed.inc(query.use_snapshot)
        self._coverage_hist.observe(result.coverage())
        self._participants_hist.observe(result.n_participants)
        runtime.simulator.trace.emit(
            runtime.simulator.now, "query.executed",
            query_id=query_id, snapshot=query.use_snapshot,
            participants=result.n_participants, coverage=result.coverage(),
        )
        return result

    def build_tree(
        self,
        sink: int,
        alive: Optional[set[int]] = None,
        use_snapshot: bool = False,
    ) -> AggregationTree:
        """The aggregation tree a flood from ``sink`` builds.

        Factored out of :meth:`execute` so the serving front-end can
        build the tree once per batch of same-sink queries and pass it
        back through ``execute(tree=...)``.

        Over a lossless radio the flood is a BFS that draws nothing, so
        its tree is a function of what it reads: the topology object,
        the sink, the alive set (the liveness bytes when ``alive`` is
        not given) and the ``prefer`` set.  Those trees are memoized for
        one (topology, liveness) state at a time.  A lossy flood samples
        the ``query`` stream, so it is flooded anew on every call.
        """
        runtime = self.runtime
        prefer: frozenset[int] = frozenset()
        if use_snapshot and self.prefer_representative_routing:
            nodes = runtime.nodes
            prefer = frozenset(
                node_id
                for node_id in runtime.alive_ids()
                if nodes[node_id].mode is not NodeMode.PASSIVE
            )
        topology = runtime.topology
        loss_model = runtime.radio.loss_model
        memo = None
        if loss_model.lossless:
            liveness = (
                bytes(runtime.radio.devices.flags) if alive is None else frozenset(alive)
            )
            state = self._trees
            if state is None or state[0] is not topology or state[1] != liveness:
                state = self._trees = (topology, liveness, {})
            memo = state[2]
            tree = memo.get((sink, prefer))
            if tree is not None:
                return tree
        if alive is None:
            alive = set(runtime.alive_ids())
        tree = AggregationTree.build(
            topology, sink, alive, self._rng, loss_model=loss_model, prefer=prefer
        )
        self.floods += 1
        if memo is not None:
            if len(memo) >= TREE_MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[sink, prefer] = tree
        return tree

    # ------------------------------------------------------------------
    # responder selection
    # ------------------------------------------------------------------

    def _matching_nodes(self, query: Query) -> list[int]:
        """Ground truth: nodes, alive or dead, whose location and value
        satisfy the query.  Only the candidates inside the region's mask
        over the coordinate columns are visited."""
        runtime = self.runtime
        topology = runtime.topology
        inside = query.region.contains_mask(topology.xs, topology.ys)
        candidates = np.flatnonzero(inside).tolist()
        predicate = query.value_predicate
        if predicate is None:
            return candidates
        return [
            node_id
            for node_id in candidates
            if predicate.matches(runtime.value_of(node_id))
        ]

    def _regular_bundles(
        self, query: Query, matching_alive: frozenset[int], tree: AggregationTree
    ) -> dict[int, dict[int, tuple[float, bool]]]:
        """Regular execution: every matching alive node reports itself."""
        members = tree.parents
        return {
            node: {node: (self.runtime.value_of(node), False)}
            for node in sorted(matching_alive)
            if node in members
        }

    def cover(self) -> tuple[np.ndarray, ...]:
        """Who answers a snapshot query for where (§3.1), as columns.

        ``(owner, subject, x, y)``: one row per alive non-PASSIVE node at
        its own location, then, for an ACTIVE one, a row per member
        with a learned location, by member id; owners ascend.  PASSIVE
        nodes do not respond (§5); an UNDEFINED one (mid-re-election)
        answers for itself.  Built once per
        :meth:`~repro.core.runtime.SnapshotRuntime.state_key`;
        protocol state edited by hand outside events needs a new
        executor.
        """
        key = self.runtime.state_key()
        if self._cover is None or self._cover[0] != key:
            nodes = self.runtime.nodes
            owner: list[int] = []
            subject: list[int] = []
            locations: list[tuple[float, float]] = []
            for node_id in self.runtime.alive_ids():
                node = nodes[node_id]
                mode = node.mode
                if mode is NodeMode.PASSIVE:
                    continue
                owner.append(node_id)
                subject.append(node_id)
                locations.append(node.location)
                if mode is NodeMode.ACTIVE:
                    for member_id, info in sorted(node.represented.items()):
                        if info.location is not None:
                            owner.append(node_id)
                            subject.append(member_id)
                            locations.append(info.location)
            n = len(owner)
            xy = np.fromiter(chain.from_iterable(locations), dtype=float, count=2 * n)
            ids = (np.fromiter(column, dtype=np.int64, count=n) for column in (owner, subject))
            self._cover = (key, (*ids, xy[0::2], xy[1::2]))
        return self._cover[1]

    def _snapshot_bundles(
        self, query: Query, tree: AggregationTree
    ) -> dict[int, dict[int, tuple[float, bool]]]:
        """Snapshot execution (§3.1): representatives answer for their sets.

        Returns each responder's bundle — its own matching reading plus
        model estimates for its matching members.  The region is tested
        once per query, as a mask over the :meth:`cover` columns; the
        rows inside it whose owner is a tree member respond, in
        ascending owner id, each pricing its members from its own
        reading.  A hand-built tree may still name dead or unknown
        nodes, which own no row.
        """
        owners, subjects, x, y = self.cover()
        rows = np.flatnonzero(query.region.contains_mask(x, y))
        members = tree.parents
        nodes = self.runtime.nodes
        predicate = query.value_predicate
        hits = misses = 0
        bundles: dict[int, dict[int, tuple[float, bool]]] = {}
        pairs = zip(owners[rows].tolist(), subjects[rows].tolist())
        for owner, group in groupby(pairs, itemgetter(0)):
            if owner not in members:
                continue
            node = nodes[owner]
            own_value = node.value_fn()
            estimate_of = node.cache.estimate
            bundle: dict[int, tuple[float, bool]] = {}
            for _, subject in group:
                if subject == owner:
                    if predicate is None or predicate.matches(own_value):
                        bundle[owner] = (own_value, False)
                    continue
                estimate = estimate_of(subject, own_value)
                if estimate is None:
                    misses += 1
                    continue
                hits += 1
                if predicate is None or predicate.matches(estimate):
                    bundle[subject] = (estimate, True)
            if bundle:
                bundles[owner] = bundle
        if hits:
            self._estimates.inc_by("hit", hits)
        if misses:
            self._estimates.inc_by("miss", misses)
        return bundles

    # ------------------------------------------------------------------
    # transmission + aggregation
    # ------------------------------------------------------------------

    def _transmit(
        self,
        query: Query,
        query_id: int,
        sink: int,
        responders: set[int],
        routers: frozenset[int],
        reports: dict[int, tuple[float, bool]],
        tree: AggregationTree,
        n_rounds: int,
    ) -> None:
        """Charge the radio cost of collecting the answers at the sink.

        *Aggregate* queries use the TAG cost model: one partial
        aggregate per participant per round — routers merge what they
        forward (§6.2's Table 3 setup).

        *Drill-through* queries cannot merge: each responder's report
        bundle is forwarded hop-by-hop along its tree path, so the cost
        of a responder is ``1 + hops`` transmissions per round.  This
        is what makes regular drill-through execution expensive and
        snapshot execution (a couple of representative bundles) cheap —
        the Figure 10 economics.

        Only the first transmission of a node's *own* raw measurement
        is snoopable; forwarded and estimated reports carry someone
        else's data and are ignored by the model layer.
        """
        radio = self.runtime.radio
        own_reports = {
            origin: value
            for origin, (value, estimated) in reports.items()
            if not estimated
        }

        def responder_message(responder: int) -> DataReport:
            value = own_reports.get(responder)
            if value is None:
                # The responder only carries member estimates; the
                # bundle is flagged estimated so nobody models it.
                return DataReport(
                    sender=responder,
                    query_id=query_id,
                    origin=responder,
                    value=0.0,
                    estimated=True,
                )
            return DataReport(
                sender=responder, query_id=query_id, origin=responder, value=value
            )

        for _ in range(n_rounds):
            if query.is_aggregate:
                for responder in sorted(responders):
                    parent = tree.parent(responder)
                    if responder == sink or parent is None:
                        continue
                    radio.unicast(responder_message(responder), parent)
                for router in sorted(routers):
                    parent = tree.parent(router)
                    if router == sink or parent is None:
                        continue
                    radio.unicast(
                        AggregateReport(
                            sender=router,
                            query_id=query_id,
                            count=0,
                            total=0.0,
                            minimum=0.0,
                            maximum=0.0,
                        ),
                        parent,
                    )
            else:
                for responder in sorted(responders):
                    if responder == sink or tree.parent(responder) is None:
                        continue
                    path = tree.path_to_sink(responder)
                    radio.unicast(responder_message(responder), path[1])
                    # every intermediate hop forwards this bundle once
                    for index, hop in enumerate(path[1:-1], start=1):
                        radio.unicast(
                            DataReport(
                                sender=hop,
                                query_id=query_id,
                                origin=responder,
                                value=own_reports.get(responder, 0.0),
                                estimated=responder not in own_reports,
                            ),
                            path[index + 1],
                        )

    def _hand_off(self, responders: Iterable[int]) -> None:
        """Run the responders' §5.1 energy hand-off.

        A node knows its own battery after transmitting: the responding
        representatives get the chance to hand their members off
        *before* they silently die mid-round.
        """
        nodes = self.runtime.nodes
        for responder in responders:
            node = nodes.get(responder)
            if node is not None and node.alive and node.represented:
                node.check_energy()

    @staticmethod
    def _aggregate(
        aggregate: Optional[Aggregate], reports: dict[int, tuple[float, bool]]
    ) -> Optional[float]:
        if aggregate is None:
            return None
        values = [value for value, _ in reports.values()]
        if aggregate is Aggregate.COUNT:
            return float(len(values))
        if not values:
            return None
        if aggregate is Aggregate.SUM:
            return float(sum(values))
        if aggregate is Aggregate.AVG:
            return float(sum(values) / len(values))
        if aggregate is Aggregate.MIN:
            return float(min(values))
        return float(max(values))

    # ------------------------------------------------------------------

    def _check_threshold_reuse(self, query: Query) -> None:
        """Enforce the §3.1 reuse rule for per-query thresholds.

        The current snapshot was elected at the runtime's threshold
        ``T``; it can serve any query with threshold ``>= T`` but not a
        tighter one — that query needs its own election (or a
        :class:`~repro.core.MultiResolutionSnapshot`).
        """
        if not query.use_snapshot or query.snapshot_threshold is None:
            return
        if query.snapshot_threshold < self.runtime.config.threshold:
            raise ValueError(
                f"query threshold {query.snapshot_threshold} is tighter than "
                f"the snapshot's election threshold "
                f"{self.runtime.config.threshold}; re-elect at the tighter "
                f"threshold or use MultiResolutionSnapshot"
            )
