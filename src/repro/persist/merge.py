"""Merging per-shard state exports back into one canonical digest.

The sharded engine (``simulation.sharded``) proves itself bit-equivalent
to the single-process :class:`~repro.core.runtime.SnapshotRuntime` by
merging each shard's exported state into the exact canonical structures
``persist.digest`` extracts from a reference run, then hashing them the
same way.  The merge rules, component by component:

* **union** — nodes, caches, batteries, energy cells, RNG streams: each
  key is owned by exactly one shard (energy cells are keyed by node, a
  node's events all fire in its owner shard), so a disjoint union *is*
  the reference map.  Shared keys must agree bit-for-bit.
* **sum** — trace counts and record tallies, metric counter cells,
  span ids (only the shard-0 spine allocates any), the stats
  checkpoint: integer or single-owner accumulations where key-wise
  addition is exact.
* **assert-equal** — the clock, coordinator epoch, radio static
  configuration, replicated loss-overlay state: every shard advances
  these in lockstep, so the merge takes one and verifies the rest.
* **reconstruct** — the event queue: replicated events (train ticks,
  election phases, fault toggles) carry identical lineage stamps in
  every shard and deduplicate; a boundary-crossing delivery was split
  across shards under one sender-minted stamp, and its fragments are
  recombined in ascending receiver order — the reference's
  ``out_neighbors`` order.  Maintenance round costs are recomputed
  from per-shard ``(window_total, n_alive)`` ingredients as
  ``sum(totals) / sum(alive)``, the reference's exact division.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.shardmetrics import export_metrics, merge_metrics
from repro.persist.digest import (
    StateDigest,
    _describe_loss,
    _digest_node,
    _digest_policy,
    _hexdigest,
    _queue_structure,
    _rng_structure,
    _trace_structure,
    canonical_bytes,
)

__all__ = ["export_shard_state", "merge_shard_states", "merged_state_digest"]


def export_shard_state(runtime: Any) -> dict[str, Any]:
    """A picklable snapshot of one shard's behavior-relevant state.

    Also valid on a full (unsharded) runtime, where the merge of the
    single export reproduces its ``state_digest`` — the property that
    keeps this exporter honest.
    """
    sim = runtime.simulator
    queue = sim.queue
    entries = []
    for entry in queue._heap:
        time, priority, key, tail = entry
        if isinstance(tail, int):  # transient slab slot — never cancellable
            label = queue._slab_label[tail]
            descriptor = _entry_descriptor(queue._slab_callback[tail])
        else:
            if tail.cancelled:
                continue
            label = tail.label
            descriptor = _entry_descriptor(tail.callback)
        entries.append((time, priority, key, label, descriptor))
    radio = runtime.radio
    topology = radio.topology
    maintenance = runtime.maintenance
    router = getattr(runtime, "observation_router", None)
    pending = 0
    if router is not None:
        pending = sum(1 for entry in router.pending if entry[0] is not None)
    return {
        "now": sim.now,
        "queue": entries,
        "rng": _rng_structure(sim.random),
        "trace": _trace_structure(sim.trace),
        "metrics": export_metrics(sim.metrics),
        "spans_next_id": sim.spans._next_id,
        "nodes": {
            node_id: _digest_node(node) for node_id, node in runtime.nodes.items()
        },
        "caches": {
            node_id: _digest_policy(node.store.policy)
            for node_id, node in runtime.nodes.items()
        },
        "batteries": {
            node_id: (
                device.battery.capacity,
                device.battery.charge,
                device.battery.spent,
                device.failed,
            )
            for node_id, device in radio._nodes.items()
        },
        "energy_cells": dict(radio.ledger._cells),
        "radio_static": (
            radio.latency,
            _describe_loss(radio.loss_model),
            tuple(topology._positions),
            tuple(topology._ranges),
        ),
        "sent_checkpoint": dict(runtime.stats._sent_checkpoint),
        "maintenance_tasks": [
            (task._label, task.stopped) for task in maintenance._tasks
        ],
        "maintenance_costs": list(maintenance._round_costs),
        "maintenance_shard_accounting": maintenance.shard_accounting,
        "maintenance_rounds": maintenance._rounds,
        "maintenance_span_open": maintenance._round_span is not None,
        "coordinator_epoch": runtime.coordinator.epoch,
        "router_pending": pending,
    }


def _entry_descriptor(callback: Any) -> tuple:
    from repro.persist.digest import callback_descriptor

    return callback_descriptor(callback)


def _take_equal(values: list, what: str):
    first = values[0]
    first_bytes = canonical_bytes(first)
    for value in values[1:]:
        if canonical_bytes(value) != first_bytes:
            raise ValueError(f"shards disagree on {what}: {first!r} != {value!r}")
    return first


def _union(maps: Iterable[dict], what: str) -> dict:
    merged: dict = {}
    for mapping in maps:
        for key, value in mapping.items():
            if key in merged:
                if canonical_bytes(merged[key]) != canonical_bytes(value):
                    raise ValueError(
                        f"shards disagree on {what}[{key!r}]"
                    )
                continue
            merged[key] = value
    return merged


def _sum_cells(maps: Iterable[dict]) -> dict:
    merged: dict = {}
    for mapping in maps:
        for key, value in mapping.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def _receiver_rank(pending_entry: tuple) -> int:
    # A described pending pair is ((type_name, (("node_id", id), ...)), overheard).
    hint = pending_entry[0]
    for attr, value in hint[1]:
        if attr == "node_id":
            return value
    raise ValueError(f"pending receiver without a node_id hint: {pending_entry!r}")


def _merge_queue_group(label: str, members: list[tuple]) -> tuple:
    """Collapse same-stamp entries from different shards into one.

    ``members`` holds each shard's ``(time, priority, label, descriptor)``
    for one lineage stamp.  Identical members are a replicated event;
    ``deliver:*`` members are fragments of one split transmission whose
    receiver lists concatenate in ascending id order; snoop toggles
    carry per-shard slices of the saved-probability dict that union.
    """
    first = members[0]
    if all(canonical_bytes(m) == canonical_bytes(first) for m in members[1:]):
        return first
    time, priority, _, descriptor = first
    if label.startswith("deliver:"):
        # ("partial", fn, (message_desc, pending_desc)) fragments.
        fn = _take_equal([m[3][1] for m in members], f"{label} callback")
        message = _take_equal([m[3][2][0] for m in members], f"{label} message")
        pairs = [pair for m in members for pair in m[3][2][1]]
        pairs.sort(key=_receiver_rank)
        return (time, priority, label, ("partial", fn, (message, tuple(pairs))))
    if label == "train:snoop-restore":
        fn = _take_equal([m[3][1] for m in members], f"{label} callback")
        saved = _union([m[3][2][0] for m in members], "saved snoop probabilities")
        return (time, priority, label, ("partial", fn, (saved,)))
    raise ValueError(
        f"shards hold divergent copies of replicated event {label!r}: {members!r}"
    )


def _merge_queue(exports: list[dict]) -> tuple:
    groups: dict = {}
    order: list = []
    for export in exports:
        for time, priority, stamp, label, descriptor in export["queue"]:
            key = (time, priority, stamp, label)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((time, priority, label, descriptor))
    entries = [
        _merge_queue_group(key[3], members) for key, members in groups.items()
    ]
    entries.sort(key=lambda e: (e[0], e[1], canonical_bytes((e[2], e[3]))))
    return tuple(entries)


def _merge_maintenance(exports: list[dict]) -> tuple[tuple, list[float]]:
    """The merged maintenance digest structure and the global round costs."""
    per_node: dict[int, bool] = {}
    round_flags: list[bool] = []
    for export in exports:
        for label, stopped in export["maintenance_tasks"]:
            if label == "maintenance:round":
                round_flags.append(stopped)
            else:
                node_id = int(label.split(":", 1)[1])
                if node_id in per_node and per_node[node_id] != stopped:
                    raise ValueError(
                        f"maintenance task for node {node_id} diverges across shards"
                    )
                per_node[node_id] = stopped
    stopped_flags = [per_node[node_id] for node_id in sorted(per_node)]
    if round_flags:
        stopped_flags.append(_take_equal(round_flags, "maintenance round task"))
    sharded = any(export["maintenance_shard_accounting"] for export in exports)
    if sharded and not all(
        export["maintenance_shard_accounting"] for export in exports
    ):
        raise ValueError("shards disagree on maintenance accounting mode")
    if sharded:
        lengths = {len(export["maintenance_costs"]) for export in exports}
        if len(lengths) != 1:
            raise ValueError(
                f"shards recorded different maintenance round counts: {lengths}"
            )
        costs = []
        for ingredients in zip(*(export["maintenance_costs"] for export in exports)):
            total = sum(pair[0] for pair in ingredients)
            alive = sum(pair[1] for pair in ingredients)
            if alive > 0:
                costs.append(total / alive)
    else:
        costs = list(
            _take_equal(
                [export["maintenance_costs"] for export in exports],
                "maintenance round costs",
            )
        )
    rounds = _take_equal(
        [export["maintenance_rounds"] for export in exports], "maintenance rounds"
    )
    span_open = any(export["maintenance_span_open"] for export in exports)
    structure = (tuple(stopped_flags), tuple(costs), rounds, span_open)
    return structure, costs


def merge_shard_states(exports: Iterable[dict]) -> dict[str, Any]:
    """Fold shard exports into the reference's canonical component structures."""
    exports = list(exports)
    if not exports:
        raise ValueError("need at least one shard export to merge")
    pending = [export["router_pending"] for export in exports]
    if any(pending):
        raise ValueError(
            f"cannot merge mid-burst: shards hold {pending} un-flushed "
            "observations; advance to a quiescent boundary first"
        )
    seeds = [export["rng"][0] for export in exports]
    seed = _take_equal(seeds, "rng seed")
    streams = _union([export["rng"][1] for export in exports], "rng stream")
    trace_counts = _sum_cells([export["trace"][0] for export in exports])
    trace_records = sum(export["trace"][1] for export in exports)
    for export in exports:
        if export["trace"][2]:
            raise ValueError(
                "cannot merge with live trace subscribers attached: "
                f"{sorted(export['trace'][2])}"
            )
    maintenance, costs = _merge_maintenance(exports)
    metrics = merge_metrics(
        [export["metrics"] for export in exports], maintenance_costs=costs
    )
    return {
        "clock": ("now", _take_equal([e["now"] for e in exports], "clock")),
        "queue": _merge_queue(exports),
        "rng": (seed, {name: streams[name] for name in sorted(streams)}),
        "trace": (trace_counts, trace_records, {}),
        "metrics": (metrics.enabled, tuple(metrics.rows())),
        "spans": sum(export["spans_next_id"] for export in exports),
        "nodes": _union([export["nodes"] for export in exports], "node"),
        "caches": _union([export["caches"] for export in exports], "cache"),
        "energy": (
            _union([export["batteries"] for export in exports], "battery"),
            _sum_cells([export["energy_cells"] for export in exports]),
        ),
        "radio": (
            *_take_equal(
                [export["radio_static"] for export in exports], "radio config"
            ),
            _sum_cells([export["sent_checkpoint"] for export in exports]),
        ),
        "maintenance": maintenance,
        "coordinator": _take_equal(
            [export["coordinator_epoch"] for export in exports], "epoch"
        ),
    }


def merged_state_digest(exports: Iterable[dict]) -> StateDigest:
    """The :class:`StateDigest` of the merged shard states.

    Component-for-component comparable with — and for a conforming
    sharded run, equal to — the reference runtime's ``state_digest()``.
    """
    structures = merge_shard_states(exports)
    components = {name: _hexdigest(value) for name, value in structures.items()}
    whole = _hexdigest(tuple(sorted(components.items())))
    return StateDigest(components=components, whole=whole)
