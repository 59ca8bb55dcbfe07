"""One fleet sweep for a delivery run's overheard observations.

Nodes snoop their neighbors' measurement reports and feed each sample
to their model-aware cache (§4) the moment they hear it.  Each run of
``DataReport`` deliveries — one burst, or a stretch of the *wave* that
delivers a §6.1 training tick in one event (``Radio._deliver_wave``) —
applies its snooped samples before its delivery event returns
(``core.protocol._burst_data_report``).  A run of at least
``core.protocol.SWEEP_MIN_SAMPLES`` samples on a runtime whose caches
share a :class:`~repro.models.soa.ModelAwareCacheFleet` is applied by
:meth:`BatchedObservationRouter.flush`, in one sweep; every other run
sample by sample, through ``ProtocolNode._record_observation``.

A node's fleet lane is its id.  A sweep first applies, in one pass,
every lane whose run cannot change its decision mode
(:meth:`~repro.models.soa.ModelAwareCacheFleet.append_runs`): a cache
below its pair budget by at least its run's samples, hearing each
neighbor once, with a free line slot for each new one, appends all of
them, as sample-by-sample observation would.  At §6.1's 2,048-byte
budget that is every lane of every training tick.  Only the remaining
lanes — a cache that fills inside the run, hears a neighbor twice or
must grow its line slots — take the *waves* through
:meth:`~repro.models.soa.ModelAwareCacheFleet.observe_lanes`: wave
*k* carries each such lane's *k*-th sample of the run, so per-lane
order (the only order the cache state depends on; lanes are
independent) is exactly the order the samples arrived in.

The effects are those of ``ProtocolNode._record_observation`` per
sample, in arrival order: the ``cache.observe`` counter through one
:meth:`~repro.obs.registry.CounterMetric.inc_by` per label key, counted
from the column of action codes (cells appear in first-touch order,
matching sample-by-sample insertion order), and the ``cache.admit``
span instants through one :meth:`~repro.obs.spans.SpanTracer.instants`
call that counts them all and builds their trace records only if they
are kept or subscribed.  The §6.2 CPU cost is charged by the caller.
The router registers no metrics of its own and holds no samples
between calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.models.policy import Action
from repro.models.soa import ACTION_CODES, ACTION_NAMES, ModelAwareCacheFleet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simulation.engine import Simulator

__all__ = ["BatchedObservationRouter"]


class BatchedObservationRouter:
    """Applies one delivery run's overheard samples in one fleet sweep.

    Parameters
    ----------
    simulator:
        The engine whose registry and span tracer receive the effects.
    fleet:
        The shared :class:`~repro.models.soa.ModelAwareCacheFleet`
        backing every node's cache, node ``i`` on lane ``i``.
    """

    def __init__(self, simulator: "Simulator", fleet: ModelAwareCacheFleet) -> None:
        self.simulator = simulator
        self.fleet = fleet
        # The same get-or-create the protocol nodes perform — the
        # counter already exists by the time the router is built, so
        # nothing new is registered (digested registry rows must match
        # a run without a fleet, which has no router at all).
        self._counter = simulator.metrics.counter(
            "cache.observe", labels=("node", "action")
        )

    def before_event(self, time: float, priority: int) -> None:
        """Does nothing; nothing in the program calls it.

        Samples are applied inside their delivery, so there is no batch
        to flush between events.  The name stays because perfbench's
        ``Tracer.install`` wraps it by name.
        """

    def flush(self, node_ids, neighbor_ids, own_values, neighbor_values) -> None:
        """Apply one run's samples and emit their effects.

        Node ``node_ids[i]`` overheard ``neighbor_ids[i]`` report
        ``neighbor_values[i]`` while its own value was
        ``own_values[i]``; the samples are in the run's burst and
        receiver order.  Each argument is a sequence or a 1-D array.
        """
        lanes = np.asarray(node_ids, dtype=np.int64)
        neighbors = np.asarray(neighbor_ids, dtype=np.int64)
        codes = self._sweep(
            lanes,
            neighbors,
            np.asarray(own_values, dtype=np.float64),
            np.asarray(neighbor_values, dtype=np.float64),
        )
        self._emit(lanes, neighbors, codes)

    def _sweep(
        self, lanes: np.ndarray, js: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """Apply the samples; returns each one's action code, in sample
        order.

        Every lane whose run cannot leave warm-up is applied in one
        pass (:meth:`~repro.models.soa.ModelAwareCacheFleet.append_runs`):
        all its samples append.  The rest take :meth:`_waves`.  Lanes
        are independent caches, so the two groups touch disjoint rows,
        and the one-pass lanes go first: the waves may grow the fleet's
        line slots, which moves rows.
        """
        applied = self.fleet.append_runs(lanes, js, xs, ys)
        codes = np.full(lanes.size, ACTION_CODES["append"], dtype=np.int8)
        rest = np.flatnonzero(~applied)
        if rest.size:
            codes[rest] = self._waves(lanes[rest], js[rest], xs[rest], ys[rest])
        return codes

    def _waves(
        self, lanes: np.ndarray, js: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """Sweep the samples in per-lane-order-preserving waves; returns
        each sample's action code, in sample order.

        Wave *k* carries each lane's *k*-th sample; within a wave, lanes
        are distinct, so the kernel rows are independent and intra-wave
        order is irrelevant.  The rank-within-lane is computed with a
        stable sort (no per-wave Python scan), and the waves are the
        contiguous equal-rank runs of the rank-sorted columns.
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
        codes = np.empty(lanes.size, dtype=np.int8)
        codes[perm] = swept
        return codes

    # ------------------------------------------------------------------
    # effects (those of ProtocolNode._record_observation, in bulk)
    # ------------------------------------------------------------------

    def _emit(self, lanes: np.ndarray, neighbors: np.ndarray, codes: np.ndarray) -> None:
        """Emit counter/span effects for a swept run in arrival order.

        The counter cells are the distinct ``(node, action code)``
        pairs, incremented in first-touch order.
        """
        spans = self.simulator.spans
        if not spans.enabled:
            # The per-sample path's counter and instants are both gated
            # on the registry; with it disabled there is nothing to emit.
            return
        n_codes = len(ACTION_CODES)
        keys = lanes * n_codes + codes
        counts = np.bincount(keys)
        first = np.full(counts.size, keys.size)
        np.minimum.at(first, keys, np.arange(keys.size))
        cells = np.flatnonzero(counts)
        cells = cells[np.argsort(first[cells], kind="stable")]
        admitted = np.flatnonzero(codes != ACTION_CODES[Action.REJECT])
        names = ACTION_NAMES
        spans.instants(
            "cache.admit",
            admitted.size,
            (
                {"node": node_id, "neighbor": neighbor, "action": names[code]}
                for node_id, neighbor, code in zip(
                    lanes[admitted].tolist(),
                    neighbors[admitted].tolist(),
                    codes[admitted].tolist(),
                )
            ),
        )
        inc_by = self._counter.inc_by
        for node_id, code, count in zip(
            (cells // n_codes).tolist(),
            (cells % n_codes).tolist(),
            counts[cells].tolist(),
        ):
            inc_by((node_id, names[code]), count)

    def __repr__(self) -> str:
        return f"BatchedObservationRouter(lanes={self.fleet.F})"
