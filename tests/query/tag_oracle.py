"""The reference oracle of query collection: message-driven TAG rounds.

``QueryExecutor`` computes a query's answer centrally and charges the
radio for the messages it implies: one partial aggregate per
participant, or one report bundle per responder per hop.  This oracle
assembles the answer *from the messages that actually arrive*, using
TAG's slotted schedule (Madden et al., the paper's [11]):

* nodes are scheduled by tree depth, deepest first;
* at its slot, a node merges its own readings with the partials its
  children delivered, and transmits one message to its parent
  (aggregates) or forwards the buffered reports (drill-through);
* the sink's slot closes the round; whatever never arrived, dropped by
  ``P_loss`` or stranded by a mid-round death, is missing from the
  answer.

Under a lossless radio its answer equals the central computation, and
so does its transmit energy wherever the two count messages alike
(``tests/query/test_collection.py``).  It hears the round's messages
by wrapping the radio's ``burst_dispatch`` for the round
(``tests/network/deliveries.py``), after the protocols have handled
them.  A node takes a message of its round only from a child, and a
child addresses its parent alone, so overheard copies are ignored
without any flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.network.messages import AggregateReport, DataReport, Message
from repro.query.aggregation_tree import AggregationTree
from repro.query.ast import Aggregate, Query
from repro.query.executor import QueryExecutor

from tests.network.deliveries import observe_deliveries

__all__ = ["TagCollection", "CollectionOutcome", "collect"]


@dataclass
class _PartialAggregate:
    """TAG's mergeable aggregate state (count/sum/min/max covers all five)."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def add_value(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def merge(self, other: "AggregateReport") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def answer(self, aggregate: Aggregate) -> Optional[float]:
        if aggregate is Aggregate.COUNT:
            return float(self.count)
        if self.count == 0:
            return None
        if aggregate is Aggregate.SUM:
            return self.total
        if aggregate is Aggregate.AVG:
            return self.total / self.count
        if aggregate is Aggregate.MIN:
            return self.minimum
        return self.maximum


@dataclass(frozen=True)
class CollectionOutcome:
    """What the sink actually received in one messaged round."""

    delivered_reports: dict[int, tuple[float, bool]]
    aggregate_value: Optional[float]
    transmissions: int


class TagCollection:
    """One epoch-slotted collection round over an aggregation tree.

    Parameters
    ----------
    runtime:
        The network; its deliveries are observed for the duration of
        the round.
    tree:
        The routing tree (built by the flood).
    query:
        Decides aggregate-vs-drill-through merging.
    query_id:
        Tags this round's messages.
    contributions:
        ``origin -> (value, estimated)`` per responder — each
        responder's own bundle, injected at its tree position; every
        other tree member only relays.
    slot:
        Slot width in time units; a node at depth d transmits
        ``(max_depth - d)`` slots after the round starts.
    """

    def __init__(
        self,
        runtime,
        tree: AggregationTree,
        query: Query,
        query_id: int,
        contributions: dict[int, dict[int, tuple[float, bool]]],
        slot: float = 0.05,
    ) -> None:
        if slot <= 0:
            raise ValueError(f"slot must be positive, got {slot}")
        self.runtime = runtime
        self.tree = tree
        self.query = query
        self.query_id = query_id
        self.contributions = contributions
        self.slot = slot
        self._partials: dict[int, _PartialAggregate] = {}
        self._buffers: dict[int, dict[int, tuple[float, bool]]] = {}
        self._sent = 0

    # ------------------------------------------------------------------

    def run(self) -> CollectionOutcome:
        """Execute the round; advances the simulator past the sink's slot."""
        simulator = self.runtime.simulator
        members = self.tree.members
        max_depth = max(self.tree.depths[m] for m in members)

        for member in members:
            self._buffers[member] = {}
            self._partials[member] = _PartialAggregate()

        # inject each responder's own contribution at its node
        for responder, bundle in self.contributions.items():
            if responder not in members:
                continue
            self._buffers[responder].update(bundle)
            for value, __ in bundle.values():
                self._partials[responder].add_value(value)

        t0 = simulator.now
        for member in members:
            if member == self.tree.sink:
                continue
            depth = self.tree.depths[member]
            fire_at = t0 + (max_depth - depth + 1) * self.slot
            simulator.schedule_at(
                fire_at,
                partial(self._transmit_slot, member),
                label=f"tag:{self.query_id}",
            )
        # close the round one slot after the depth-1 transmissions land
        undo = observe_deliveries(self.runtime.radio, self._receive)
        simulator.run_until(t0 + (max_depth + 2) * self.slot)
        undo()

        sink = self.tree.sink
        aggregate_value = None
        if self.query.is_aggregate:
            assert self.query.aggregate is not None
            aggregate_value = self._partials[sink].answer(self.query.aggregate)
        return CollectionOutcome(
            delivered_reports=dict(self._buffers[sink]),
            aggregate_value=aggregate_value,
            transmissions=self._sent,
        )

    # ------------------------------------------------------------------

    def _transmit_slot(self, node_id: int) -> None:
        device = self.runtime.radio.node(node_id)
        if not device.alive:
            return
        parent = self.tree.parent(node_id)
        if parent is None:
            return
        if self.query.is_aggregate:
            partial = self._partials[node_id]
            if partial.count == 0 and self.query.aggregate is not Aggregate.COUNT:
                return  # nothing to report; stay silent (TAG suppression)
            sent = self.runtime.radio.unicast(
                AggregateReport(
                    sender=node_id,
                    query_id=self.query_id,
                    count=partial.count,
                    total=partial.total,
                    minimum=partial.minimum,
                    maximum=partial.maximum,
                ),
                parent,
            )
            self._sent += 1 if sent else 0
        else:
            for origin, (value, estimated) in sorted(self._buffers[node_id].items()):
                # the "estimated" flag travels with the report: it marks
                # model-produced values, not forwarded ones (snooping
                # already ignores any report whose origin != sender)
                sent = self.runtime.radio.unicast(
                    DataReport(
                        sender=node_id,
                        query_id=self.query_id,
                        origin=origin,
                        value=value,
                        estimated=estimated,
                    ),
                    parent,
                )
                self._sent += 1 if sent else 0

    def _receive(self, message: Message, node_id: int) -> None:
        """One delivery to ``node_id``: a report of this round from one
        of its children is merged (aggregates) or buffered."""
        if getattr(message, "query_id", None) != self.query_id:
            return
        if node_id not in self._partials or not self._is_child(message.sender, node_id):
            return
        if isinstance(message, AggregateReport):
            self._partials[node_id].merge(message)
        elif isinstance(message, DataReport):
            self._buffers[node_id][message.origin] = (message.value, message.estimated)

    def _is_child(self, sender: int, receiver: int) -> bool:
        return self.tree.parent(sender) == receiver


def collect(
    executor: QueryExecutor, query: Query, sink: Optional[int] = None
) -> CollectionOutcome:
    """Answer ``query`` through the oracle instead of the central model.

    The executor picks the sink (a random alive node when ``sink`` is
    omitted), checks the query's threshold, builds the tree and selects
    the responders' bundles as ``execute`` does; ``query.rounds`` TAG
    rounds carry them to the sink, and the responders run their energy
    hand-off.  The outcome is the last round's.
    """
    runtime = executor.runtime
    if sink is None:
        alive = runtime.alive_ids()
        if not alive:
            raise RuntimeError("no alive node can act as sink")
        sink = int(alive[executor._rng.integers(0, len(alive))])
    executor._check_threshold_reuse(query)
    tree = executor.build_tree(sink, use_snapshot=query.use_snapshot)
    if query.use_snapshot:
        bundles = executor._snapshot_bundles(query, tree)
    else:
        alive_matching = frozenset(
            node for node in executor._matching_nodes(query) if runtime.radio.is_alive(node)
        )
        bundles = executor._regular_bundles(query, alive_matching, tree)
    executor._query_counter += 1
    for _ in range(query.rounds):
        outcome = TagCollection(runtime, tree, query, executor._query_counter, bundles).run()
    executor._hand_off(bundles)
    return outcome
