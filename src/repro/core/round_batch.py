"""Batched application of overheard measurement observations.

During a maintenance round every node overhears its neighbors'
measurement broadcasts and feeds each sample to its model-aware cache
(§4).  The scalar path applies every observation inside the delivery
event that carried it — one ``cache.observe`` call at a time — which
leaves the cross-cache fleet engine (``models.soa``) idle exactly where
the simulation spends its time.

:class:`BatchedObservationRouter` collects those observations instead:
each delivery burst of a report hands its snoopers' ``(node, neighbor,
own, value)`` samples to :meth:`enqueue_burst`, and the simulator's
observation barrier (see ``Simulator.observation_barrier``)
:meth:`flush`-es the batch before the next event that is not part of
the same same-instant delivery burst.
Fleet-backed caches are swept in *waves* through
:meth:`~repro.models.soa.ModelAwareCacheFleet.observe_lanes` — wave *k*
carries each lane's *k*-th pending sample, so per-lane order (the only
order the cache state depends on; lanes are independent) is preserved
exactly.  Everything else falls back to per-node scalar application in
arrival order.

Equivalence contract — the batched run must be bit-identical to the
scalar run:

* **When to flush.** The barrier flushes before any event except a
  delivery (priority ``DELIVERY_PRIORITY``) at the batch's own
  timestamp, i.e. the continuation of the very burst that enqueued the
  samples.  Flushing mid-burst would also be safe (the scalar path
  applies even earlier); deferring past the burst would not, because a
  later event could read a cache that scalar execution had already
  updated.
* **Ordering fallback.** A handler that *reads* its own store inside
  the burst (``_on_heartbeat`` records a sample and immediately serves
  an estimate from it) first calls :meth:`sync`, which applies that
  node's pending samples scalarly, in arrival order, with their
  effects, and tombstones them.
* **Effects.** The ``cache.observe`` counter and the ``cache.admit``
  span instants are emitted in global arrival order during the flush —
  the counter through one :meth:`~repro.obs.registry.CounterMetric.inc_by`
  per label key (cells appear in first-touch order, matching scalar
  insertion order), the instants through one
  :meth:`~repro.obs.spans.SpanTracer.instants` call that counts them
  all and builds their trace records only if they are kept or
  subscribed — the records the scalar path's one
  ``SpanTracer.instant`` per sample would build.  The §6.2 CPU cost
  is charged at enqueue time by the caller, keeping the battery/ledger
  timeline untouched.  The router registers no metrics of its own.

The router is plain picklable state (pending samples reference protocol
nodes already in the checkpoint graph), so a mid-run checkpoint carries
the un-flushed batch and the restored run flushes it exactly where the
uninterrupted run would have.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.models.policy import Action
from repro.models.soa import ACTION_NAMES, ModelAwareCacheFleet
from repro.network.radio import DELIVERY_PRIORITY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.protocol import ProtocolNode
    from repro.simulation.engine import Simulator

__all__ = ["BatchedObservationRouter"]


class BatchedObservationRouter:
    """Collects per-delivery cache observations and applies them in bulk.

    Parameters
    ----------
    simulator:
        The engine whose barrier hook drives :meth:`flush`.
    fleet:
        The shared :class:`~repro.models.soa.ModelAwareCacheFleet`
        backing the deployment's caches, or ``None`` when the cache
        policy is not fleet-capable (the router then applies every
        sample scalarly — still batched at the same barrier, just
        without the vectorized sweep).
    node_label:
        Mirrors ``ProtocolConfig.observe_node_label``: whether the
        ``cache.observe`` counter keys on ``(node, action)`` or just
        ``action``.
    """

    def __init__(
        self,
        simulator: "Simulator",
        fleet: Optional[ModelAwareCacheFleet] = None,
        node_label: bool = True,
    ) -> None:
        self.simulator = simulator
        self.fleet = fleet
        self.node_label = node_label
        #: Pending samples, ``[node, neighbor_id, own_value, neighbor_value]``
        #: in arrival order.  The list itself is the barrier's truthy
        #: ``pending`` attribute; :meth:`sync` tombstones consumed
        #: entries by nulling the node slot.
        self.pending: list[list] = []
        self._pending_time = -1.0
        # The same get-or-create the protocol nodes perform — the
        # counter already exists by the time the router is built, so
        # nothing new is registered (digested registry rows must match
        # a scalar run, which has no router at all).
        labels = ("node", "action") if node_label else ("action",)
        self._counter = simulator.metrics.counter("cache.observe", labels=labels)
        # Per-node routing memo: ``node -> (lane, n_measurements)`` for
        # fleet-backed stores, ``()`` for scalar fallback.  Safe to
        # memoize because lanes are bound once at runtime construction
        # and never rebound (crashes clear cache *contents*, not the
        # policy binding).
        self._route: dict = {}

    # ------------------------------------------------------------------
    # producer side (delivery handlers)
    # ------------------------------------------------------------------

    def enqueue_burst(
        self,
        nodes: list["ProtocolNode"],
        neighbor_id: int,
        own_values: list[float],
        neighbor_value: float,
    ) -> None:
        """Queue one delivery burst's overheard samples for the next flush.

        ``nodes[i]`` overheard ``neighbor_id`` report ``neighbor_value``
        while its own value was ``own_values[i]``; the samples queue in
        burst (receiver) order.
        """
        pending = self.pending
        if not pending:
            self._pending_time = self.simulator.now
        pending.extend(
            [node, neighbor_id, own, neighbor_value]
            for node, own in zip(nodes, own_values)
        )

    def sync(self, node: "ProtocolNode") -> None:
        """Apply (and tombstone) ``node``'s pending samples scalarly.

        Called by handlers that read their own store mid-burst; the
        samples land in arrival order with their full effects, exactly
        as the scalar path would have applied them.
        """
        pending = self.pending
        if not pending:
            return
        record = node.store.record
        for entry in pending:
            if entry[0] is node:
                action = record(entry[1], entry[2], entry[3])
                self._effect(node, entry[1], action)
                entry[0] = None

    # ------------------------------------------------------------------
    # barrier side (engine hook)
    # ------------------------------------------------------------------

    def before_event(self, time: float, priority: int) -> None:
        """Flush unless the upcoming event continues the same burst."""
        if time == self._pending_time and priority == DELIVERY_PRIORITY:
            return
        self.flush()

    def flush(self) -> None:
        """Apply every pending sample and emit its effects."""
        entries = self.pending
        if not entries:
            return
        self.pending = []
        self._pending_time = -1.0
        actions: list = [None] * len(entries)
        fleet = self.fleet
        if fleet is None:
            for i, entry in enumerate(entries):
                node = entry[0]
                if node is not None:
                    actions[i] = node.store.record(entry[1], entry[2], entry[3])
        else:
            lanes_l: list[int] = []
            js_l: list[int] = []
            xs_l: list[float] = []
            ys_l: list[float] = []
            pos_l: list[int] = []
            route = self._route
            for i, entry in enumerate(entries):
                node = entry[0]
                if node is None:
                    continue
                way = route.get(node)
                if way is None:
                    store = node.store
                    policy = store.policy
                    if getattr(policy, "_fleet", None) is fleet:
                        way = (policy._lane, store.n_measurements)
                    else:
                        way = ()
                    route[node] = way
                if way:
                    lanes_l.append(way[0])
                    # NeighborModelStore._key(j, 0), inlined columnar.
                    js_l.append(entry[1] * way[1])
                    xs_l.append(entry[2])
                    ys_l.append(entry[3])
                    pos_l.append(i)
                else:
                    actions[i] = node.store.record(entry[1], entry[2], entry[3])
            if lanes_l:
                self._flush_fleet(entries, actions, lanes_l, js_l, xs_l, ys_l, pos_l)
        self._emit(entries, actions)

    def _flush_fleet(
        self,
        entries: list[list],
        actions: list,
        lanes_l: list[int],
        js_l: list[int],
        xs_l: list[float],
        ys_l: list[float],
        pos_l: list[int],
    ) -> None:
        """Sweep fleet-backed samples in per-lane-order-preserving waves.

        Wave *k* carries each lane's *k*-th sample; within a wave, lanes
        are distinct, so the kernel rows are independent and intra-wave
        order is irrelevant.  The rank-within-lane is computed with a
        stable sort (no per-wave Python scan), and the waves are the
        contiguous equal-rank runs of the rank-sorted columns.
        """
        fleet = self.fleet
        lanes = np.array(lanes_l, dtype=np.int64)
        if lanes.size == 1:
            i = pos_l[0]
            entry = entries[i]
            actions[i] = entry[0].store.record(entry[1], entry[2], entry[3])
            return
        order = np.argsort(lanes, kind="stable")
        sorted_lanes = lanes[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_lanes[1:] != sorted_lanes[:-1]))
        )
        counts = np.diff(np.append(starts, sorted_lanes.size))
        rank = np.empty(lanes.size, dtype=np.int64)
        rank[order] = np.arange(lanes.size) - np.repeat(starts, counts)
        perm = np.argsort(rank, kind="stable")
        lanes_p = lanes[perm]
        js_p = np.array(js_l, dtype=np.int64)[perm]
        xs_p = np.array(xs_l, dtype=np.float64)[perm]
        ys_p = np.array(ys_l, dtype=np.float64)[perm]
        rank_p = rank[perm]
        wave_starts = np.flatnonzero(
            np.concatenate(([True], rank_p[1:] != rank_p[:-1]))
        ).tolist()
        wave_ends = wave_starts[1:] + [int(rank_p.size)]
        codes = np.empty(lanes.size, dtype=np.int8)
        for s, e in zip(wave_starts, wave_ends):
            codes[s:e] = fleet.observe_lanes(
                lanes_p[s:e], js_p[s:e], xs_p[s:e], ys_p[s:e]
            )
        if not self.simulator.spans.enabled:
            # _emit is a no-op with the registry disabled — the action
            # strings would be built only to be dropped.
            return
        names = ACTION_NAMES
        pos = np.array(pos_l, dtype=np.int64)[perm]
        for i, code in zip(pos.tolist(), codes.tolist()):
            actions[i] = names[code]

    # ------------------------------------------------------------------
    # effects (identical to ProtocolNode._record_observation's)
    # ------------------------------------------------------------------

    def _effect(self, node: "ProtocolNode", neighbor_id: int, action: str) -> None:
        """Scalar-path effects for one sample (used by :meth:`sync`)."""
        key = (node.node_id, action) if self.node_label else action
        self._counter.inc(key)
        if action != Action.REJECT:
            self.simulator.spans.instant(
                "cache.admit", node=node.node_id, neighbor=neighbor_id, action=action
            )

    def _emit(self, entries: list[list], actions: list) -> None:
        """Emit counter/span effects for a flushed batch in arrival order."""
        spans = self.simulator.spans
        if not spans.enabled:
            # The scalar path's counter and instants are both gated on
            # the registry; with it disabled there is nothing to emit.
            return
        node_label = self.node_label
        reject = Action.REJECT
        agg: dict = {}
        admits = 0
        for entry, action in zip(entries, actions):
            node = entry[0]
            if node is None:
                continue
            key = (node.node_id, action) if node_label else action
            agg[key] = agg.get(key, 0) + 1
            if action != reject:
                admits += 1
        spans.instants(
            "cache.admit",
            admits,
            (
                {"node": entry[0].node_id, "neighbor": entry[1], "action": action}
                for entry, action in zip(entries, actions)
                if entry[0] is not None and action != reject
            ),
        )
        inc_by = self._counter.inc_by
        for key, count in agg.items():
            inc_by(key, count)

    def __repr__(self) -> str:
        return (
            f"BatchedObservationRouter(pending={len(self.pending)}, "
            f"fleet={'yes' if self.fleet is not None else 'no'})"
        )
