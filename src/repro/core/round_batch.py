"""Batched application of overheard measurement observations.

During a maintenance round every node overhears its neighbors'
measurement broadcasts and feeds each sample to its model-aware cache
(§4).  The scalar path applies every observation inside the delivery
event that carried it — one ``cache.observe`` call at a time — which
leaves the cross-cache fleet engine (``models.soa``) idle exactly where
the simulation spends its time.

:class:`BatchedObservationRouter` collects those observations instead:
each delivery burst of a report hands its snoopers' ids, their own
values, the reporter's id and its value to :meth:`enqueue_burst`, and
the simulator's observation barrier (see
``Simulator.observation_barrier``) :meth:`flush`-es the batch before the
next event that is not part of the same same-instant delivery burst.

The batch is four parallel columns in arrival order: ``pending`` (the
snooper's node id, ``-1`` once :meth:`sync` consumed the sample — the
tombstone mask), the neighbor's id, the snooper's own value and the
neighbor's value.  A flush maps the id column through a node → lane
column and sweeps fleet-backed caches in *waves* through
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
* **Ordering fallback.** A handler that *reads* its own cache inside
  the burst (``_on_heartbeat`` records a sample and immediately serves
  an estimate from it) first calls :meth:`sync`, which applies that
  node's pending samples scalarly, in arrival order, with their
  effects, and tombstones them.
* **Effects.** The ``cache.observe`` counter and the ``cache.admit``
  span instants are emitted in global arrival order during the flush —
  the counter through one :meth:`~repro.obs.registry.CounterMetric.inc_by`
  per label key, counted from the column of action codes (cells appear
  in first-touch order, matching scalar insertion order), the instants
  through one
  :meth:`~repro.obs.spans.SpanTracer.instants` call that counts them
  all and builds their trace records only if they are kept or
  subscribed — the records the scalar path's one
  ``SpanTracer.instant`` per sample would build.  The §6.2 CPU cost
  is charged at enqueue time by the caller, keeping the battery/ledger
  timeline untouched.  The router registers no metrics of its own.

The router is plain picklable state, so a mid-run checkpoint carries
the un-flushed batch and the restored run flushes it exactly where the
uninterrupted run would have.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.models.policy import Action
from repro.models.soa import ACTION_CODES, ACTION_NAMES, ModelAwareCacheFleet
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
    nodes:
        The protocol nodes by id; the samples' ids resolve here.
    fleet:
        The shared :class:`~repro.models.soa.ModelAwareCacheFleet`
        backing the deployment's caches, or ``None`` when the cache
        policy is not fleet-capable (the router then applies every
        sample scalarly — still batched at the same barrier, just
        without the vectorized sweep).
    """

    def __init__(
        self,
        simulator: "Simulator",
        nodes: dict[int, "ProtocolNode"],
        fleet: Optional[ModelAwareCacheFleet] = None,
    ) -> None:
        self.simulator = simulator
        self.nodes = nodes
        self.fleet = fleet
        #: The pending samples' node ids, in arrival order (``-1`` for a
        #: sample :meth:`sync` consumed); the barrier's truthy
        #: ``pending`` attribute.  ``_neighbors``, ``_owns`` and
        #: ``_values`` are the parallel columns.
        self.pending: list[int] = []
        self._neighbors: list[int] = []
        self._owns: list[float] = []
        self._values: list[float] = []
        self._pending_time = -1.0
        # The same get-or-create the protocol nodes perform — the
        # counter already exists by the time the router is built, so
        # nothing new is registered (digested registry rows must match
        # a scalar run, which has no router at all).
        self._counter = simulator.metrics.counter(
            "cache.observe", labels=("node", "action")
        )
        # Node id -> fleet lane (-1: scalar fallback), for the fleet it
        # was read from; rebuilt when the fleet changes (a cache-policy
        # swap binds fresh caches).
        self._routed: Optional[ModelAwareCacheFleet] = None

    # ------------------------------------------------------------------
    # producer side (delivery handlers)
    # ------------------------------------------------------------------

    def enqueue_burst(
        self,
        node_ids: list[int],
        neighbor_id: int,
        own_values: list[float],
        neighbor_value: float,
    ) -> None:
        """Queue one delivery burst's overheard samples for the next flush.

        Node ``node_ids[i]`` overheard ``neighbor_id`` report
        ``neighbor_value`` while its own value was ``own_values[i]``;
        the samples queue in burst (receiver) order.
        """
        if not self.pending:
            self._pending_time = self.simulator.now
        count = len(node_ids)
        self.pending += node_ids
        self._neighbors += [neighbor_id] * count
        self._owns += own_values
        self._values += [neighbor_value] * count

    def sync(self, node: "ProtocolNode") -> None:
        """Apply (and tombstone) ``node``'s pending samples scalarly.

        Called by handlers that read their own cache mid-burst; the
        samples land in arrival order with their full effects, exactly
        as the scalar path would have applied them.
        """
        ids = self.pending
        node_id = node.node_id
        if node_id not in ids:
            return
        observe = node.cache.observe
        i = ids.index(node_id)
        while True:
            neighbor_id = self._neighbors[i]
            action = observe(neighbor_id, self._owns[i], self._values[i])
            self._effect(node_id, neighbor_id, action)
            ids[i] = -1
            try:
                i = ids.index(node_id, i + 1)
            except ValueError:
                return

    def samples(self) -> list[tuple[int, int, float, float]]:
        """The pending ``(node id, neighbor id, own, value)`` samples in
        arrival order, consumed ones left out."""
        return [
            sample
            for sample in zip(self.pending, self._neighbors, self._owns, self._values)
            if sample[0] != -1
        ]

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
        if not self.pending:
            return
        ids = self.pending
        neighbors, owns, values = self._neighbors, self._owns, self._values
        self.pending, self._neighbors, self._owns, self._values = [], [], [], []
        self._pending_time = -1.0
        id_col = np.array(ids, dtype=np.int64)
        codes = np.full(id_col.size, -1, dtype=np.int8)
        fleet = self.fleet
        if fleet is None:
            lanes = np.full(id_col.size, -1, dtype=np.int64)
        else:
            lane_of = self._route(fleet)
            lanes = np.where(id_col >= 0, lane_of[id_col], -1)
        rows = np.flatnonzero(lanes >= 0)
        scalar = (id_col >= 0) & (lanes < 0)
        if rows.size == 1:  # one sample: a scalar call beats a sweep
            scalar[rows], rows = True, rows[:0]
        nodes = self.nodes
        for i in np.flatnonzero(scalar).tolist():
            action = nodes[ids[i]].cache.observe(neighbors[i], owns[i], values[i])
            codes[i] = ACTION_CODES[action]
        if rows.size:
            js = np.array(neighbors, dtype=np.int64)[rows]
            xs = np.array(owns, dtype=np.float64)[rows]
            ys = np.array(values, dtype=np.float64)[rows]
            self._flush_fleet(codes, rows, lanes[rows], js, xs, ys)
        self._emit(id_col, neighbors, codes)

    def _route(self, fleet: ModelAwareCacheFleet) -> np.ndarray:
        """The node id -> lane column for ``fleet``."""
        if self._routed is not fleet:
            lanes = np.full(max(self.nodes, default=-1) + 1, -1, dtype=np.int64)
            for node_id, node in self.nodes.items():
                cache = node.cache
                if getattr(cache, "_fleet", None) is fleet:
                    lanes[node_id] = cache._lane
            self._routed, self._lanes = fleet, lanes
        return self._lanes

    def _flush_fleet(
        self,
        codes: np.ndarray,
        rows: np.ndarray,
        lanes: np.ndarray,
        js: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> None:
        """Sweep fleet-backed samples in per-lane-order-preserving waves.

        ``rows`` are the samples' positions in the batch, ascending.
        Wave *k* carries each lane's *k*-th sample; within a wave, lanes
        are distinct, so the kernel rows are independent and intra-wave
        order is irrelevant.  The rank-within-lane is computed with a
        stable sort (no per-wave Python scan), and the waves are the
        contiguous equal-rank runs of the rank-sorted columns.  Each
        sample's action code lands at its row of ``codes``.
        """
        fleet = self.fleet
        order = np.argsort(lanes, kind="stable")
        sorted_lanes = lanes[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_lanes[1:] != sorted_lanes[:-1]))
        )
        counts = np.diff(np.append(starts, sorted_lanes.size))
        rank = np.empty(lanes.size, dtype=np.int64)
        rank[order] = np.arange(lanes.size) - np.repeat(starts, counts)
        perm = np.argsort(rank, kind="stable")
        lanes_p, js_p, xs_p, ys_p = lanes[perm], js[perm], xs[perm], ys[perm]
        rank_p = rank[perm]
        wave_starts = np.flatnonzero(
            np.concatenate(([True], rank_p[1:] != rank_p[:-1]))
        ).tolist()
        wave_ends = wave_starts[1:] + [int(rank_p.size)]
        swept = np.empty(lanes.size, dtype=np.int8)
        for s, e in zip(wave_starts, wave_ends):
            swept[s:e] = fleet.observe_lanes(
                lanes_p[s:e], js_p[s:e], xs_p[s:e], ys_p[s:e]
            )
        codes[rows[perm]] = swept

    # ------------------------------------------------------------------
    # effects (identical to ProtocolNode._record_observation's)
    # ------------------------------------------------------------------

    def _effect(self, node_id: int, neighbor_id: int, action: str) -> None:
        """Scalar-path effects for one sample (used by :meth:`sync`)."""
        self._counter.inc((node_id, action))
        if action != Action.REJECT:
            self.simulator.spans.instant(
                "cache.admit", node=node_id, neighbor=neighbor_id, action=action
            )

    def _emit(self, id_col: np.ndarray, neighbors: list[int], codes: np.ndarray) -> None:
        """Emit counter/span effects for a flushed batch in arrival order.

        The counter cells are the distinct ``(node, action code)`` pairs
        of the applied samples, incremented in first-touch order.
        """
        spans = self.simulator.spans
        if not spans.enabled:
            # The scalar path's counter and instants are both gated on
            # the registry; with it disabled there is nothing to emit.
            return
        applied = codes >= 0
        n_codes = len(ACTION_CODES)
        keys = id_col[applied] * n_codes + codes[applied]
        cells, first, counts = np.unique(keys, return_index=True, return_counts=True)
        touch = np.argsort(first, kind="stable")
        admitted = np.flatnonzero(applied & (codes != ACTION_CODES[Action.REJECT]))
        names = ACTION_NAMES
        spans.instants(
            "cache.admit",
            admitted.size,
            (
                {"node": node_id, "neighbor": neighbors[i], "action": names[code]}
                for i, node_id, code in zip(
                    admitted.tolist(),
                    id_col[admitted].tolist(),
                    codes[admitted].tolist(),
                )
            ),
        )
        inc_by = self._counter.inc_by
        for key, count in zip(cells[touch].tolist(), counts[touch].tolist()):
            node_id, code = divmod(key, n_codes)
            inc_by((node_id, names[code]), count)

    def __repr__(self) -> str:
        return (
            f"BatchedObservationRouter(pending={len(self.pending)}, "
            f"fleet={'yes' if self.fleet is not None else 'no'})"
        )
