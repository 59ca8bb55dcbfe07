"""Canonical state digests for checkpoint integrity and divergence detection.

A digest is a SHA-256 over a *canonical byte encoding* of a component's
behavior-relevant state — not over pickle bytes, which vary with memo
ordering and protocol details.  The canonicalization rules:

* floats are encoded bit-exactly (IEEE-754 big-endian), so two states
  digest equal iff every float is bit-identical;
* dicts and sets are serialized in sorted-key order, making digests
  independent of hash-table history (which a pickle round-trip changes);
* numpy arrays contribute dtype, shape and raw bytes; RNG streams
  contribute their full ``bit_generator.state``;
* scheduled callbacks are reduced to *descriptors* — the function's
  qualified name, the owner's identifying attributes (``node_id``,
  ``epoch``, ...), and canonicalized partial arguments — so two runs
  whose queues hold "the same" pending work digest equal even though
  the callback objects differ by identity.

Components digested for a full runtime: ``clock``, ``queue``, ``rng``,
``trace``, ``metrics``, ``spans``, ``nodes``, ``caches``, ``energy``,
``radio``, ``maintenance``, ``coordinator``.  A bare simulator digests
only the first six.  The whole-sim digest hashes the sorted
``(component, digest)`` pairs, so any component drift changes it.

Wall-clock state (the :class:`~repro.obs.profiler.EventProfiler`) is
deliberately excluded: it never feeds back into simulation behavior.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter, deque
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import partial
from typing import Any, Optional

import numpy as np

from repro.network.state import FAILED

__all__ = [
    "StateDigest",
    "state_digest",
    "digest_components",
    "canonical_bytes",
    "callback_descriptor",
    "RoundDigestRecorder",
]

#: Attributes probed (in order) to identify a callback's owner object.
_HINT_ATTRS = (
    "node_id",
    "epoch",
    "query_id",
    "label",
    "_label",
    "name",
    "kind",
    "index",
)

_PRIMITIVES = (type(None), bool, int, float, str, bytes)


def _owner_hint(obj: Any) -> tuple:
    """Identifying attributes of a callback's bound object."""
    hints = []
    for attr in _HINT_ATTRS:
        value = getattr(obj, attr, None)
        if isinstance(value, (bool, int, float, str)):
            hints.append((attr, value))
    return (type(obj).__qualname__, tuple(hints))


def callback_descriptor(cb: Any) -> tuple:
    """A canonical, identity-free description of a scheduled callback."""
    if isinstance(cb, partial):
        return (
            "partial",
            callback_descriptor(cb.func),
            tuple(_describe_value(arg) for arg in cb.args),
        )
    func = getattr(cb, "__func__", None)
    owner = getattr(cb, "__self__", None)
    if func is not None and owner is not None:  # bound method
        return ("method", func.__qualname__, _owner_hint(owner))
    if hasattr(cb, "__qualname__"):  # plain function
        return ("function", cb.__qualname__)
    return ("object", _owner_hint(cb))


def _describe_value(value: Any) -> Any:
    """Describe a partial argument / payload value for canonicalization."""
    if isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_describe_value(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_describe_value(v) for v in value)
    if isinstance(value, dict):
        return {k: _describe_value(v) for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__qualname__,
            tuple((f.name, _describe_value(getattr(value, f.name))) for f in fields(value)),
        )
    if callable(value):
        return callback_descriptor(value)
    return _owner_hint(value)


# ----------------------------------------------------------------------
# canonical byte encoding
# ----------------------------------------------------------------------


def canonical_bytes(obj: Any) -> bytes:
    """Type-tagged, length-prefixed canonical encoding of ``obj``."""
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def _frame(out: bytearray, tag: bytes, payload: bytes) -> None:
    out += tag
    out += struct.pack(">Q", len(payload))
    out += payload


def _encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, Enum):
        _frame(out, b"e", f"{type(obj).__qualname__}:{obj.name}".encode())
    elif isinstance(obj, int):
        _frame(out, b"i", str(obj).encode())
    elif isinstance(obj, float):
        _frame(out, b"f", struct.pack(">d", obj))
    elif isinstance(obj, str):
        _frame(out, b"s", obj.encode("utf-8"))
    elif isinstance(obj, bytes):
        _frame(out, b"b", obj)
    elif isinstance(obj, np.ndarray):
        _frame(
            out,
            b"a",
            obj.dtype.str.encode() + b"|" + repr(obj.shape).encode() + b"|"
            + np.ascontiguousarray(obj).tobytes(),
        )
    elif isinstance(obj, np.generic):
        _encode(obj.item(), out)
    elif isinstance(obj, (tuple, list, deque)):
        body = bytearray()
        for item in obj:
            _encode(item, body)
        _frame(out, b"l", bytes(body))
    elif isinstance(obj, (set, frozenset)):
        encoded = sorted(canonical_bytes(item) for item in obj)
        _frame(out, b"S", b"".join(encoded))
    elif isinstance(obj, (dict, Counter)):
        entries = sorted(
            (canonical_bytes(key), canonical_bytes(value))
            for key, value in obj.items()
        )
        _frame(out, b"d", b"".join(k + v for k, v in entries))
    else:
        _encode(_describe_value(obj), out)


def _hexdigest(obj: Any) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


# ----------------------------------------------------------------------
# component extractors
# ----------------------------------------------------------------------


def _queue_structure(queue: Any) -> tuple:
    """Content-canonical view of the pending event set.

    Entries are ``(time, priority, label, descriptor)`` sorted by
    content: the insertion counter and the heap's physical layout are
    representation details, and cancelled handles are excluded
    outright — the queue drops them lazily, when they reach its head,
    at representation-dependent moments, and they can never affect
    future behavior.  Two queues that will fire the same work
    therefore digest equal however they were built.
    """
    entries = []
    for time, priority, _key, event in queue._heap:
        if not event.cancelled:
            entries.append(
                (time, priority, event.label, callback_descriptor(event.callback))
            )
    entries.sort(key=lambda e: (e[0], e[1], canonical_bytes((e[2], e[3]))))
    return tuple(entries)


def _rng_structure(random: Any) -> tuple:
    return (
        random.seed,
        {
            name: random._streams[name].bit_generator.state
            for name in sorted(random._streams)
        },
    )


def _trace_structure(trace: Any) -> tuple:
    return (
        dict(trace.counts),
        len(trace.records),
        {
            kind: tuple(
                (s.deliveries, callback_descriptor(s.callback)) for s in subs
            )
            for kind, subs in trace._subscribers.items()
        },
    )


def _digest_simulator(sim: Any) -> dict[str, str]:
    """Per-component digests of a bare simulator.

    The clock keeps only ``now``: the events-processed tally is an
    execution statistic, not state that shapes what happens next.
    """
    structures = {
        "clock": ("now", sim.now),
        "queue": _queue_structure(sim.queue),
        "rng": _rng_structure(sim.random),
        "trace": _trace_structure(sim.trace),
        "metrics": (sim.metrics.enabled, tuple(sim.metrics.rows())),
        "spans": sim.spans._next_id,
    }
    return {name: _hexdigest(value) for name, value in structures.items()}


def _digest_event_handle(event: Optional[Any]) -> Optional[tuple]:
    if event is None:
        return None
    return (event.time, event.label, event.cancelled, event._queued)


def _digest_node(node: Any) -> tuple:
    return (
        node.node_id,
        node.mode,
        node.representative_id,
        {
            member: (info.location, info.accepted_at, info.last_heard)
            for member, info in node.represented.items()
        },
        node.epoch,
        node._collecting_invitations,
        dict(node._heard_invitations),
        dict(node._heard_list_lengths),
        dict(node._offers),
        node._my_list_length,
        node._refining,
        node._sent_recall,
        node._sent_stay_active,
        node._ack_pending,
        _digest_event_handle(node._rule4_event),
        node._awaiting_offers,
        node._await_reply,
        _digest_event_handle(node._reply_timeout_event),
        node._resigning,
        dict(node._pending_invitations),
        node._offer_flush_scheduled,
        node.snoop_probability,
        node.reelections,
        node.location,
    )


def _digest_policy(policy: Any) -> tuple:
    # The policy canonicalizes itself: stored pairs, live sufficient
    # sums and decision cursors, with derived memo caches omitted —
    # so scalar and struct-of-arrays backing stores digest equal
    # exactly when they will behave identically.
    return policy.digest_state()


def _describe_loss(model: Any) -> tuple:
    name = type(model).__qualname__
    if hasattr(model, "base") and hasattr(model, "_burst_losses"):  # overlay
        return (
            name,
            _describe_loss(model.base),
            tuple(model._burst_losses),
            tuple(sorted((frozenset(g) for g in model._partitions), key=sorted)),
        )
    if hasattr(model, "probability"):
        return (name, model.probability)
    if hasattr(model, "overrides"):
        return (name, model.base, dict(model.overrides))
    if hasattr(model, "floor"):
        return (name, model.floor, model.ceiling)
    return (name, repr(model))


def _digest_runtime(runtime: Any) -> dict[str, str]:
    """Per-component digests of a full runtime's own state.

    The energy component keeps the per-node batteries, each crash bit
    as the radio's own device columns hold it (a radio restored without
    them is refused) and the ledger's registry cells, but not the
    ledger's running float totals: those are sums whose last bits
    depend on the order of addition, and they are derivable from the
    cells.
    """
    radio = runtime.radio
    topology = radio.topology
    flags = radio.devices.flags
    comps = {
        "nodes": {
            node_id: _digest_node(node) for node_id, node in runtime.nodes.items()
        },
        "caches": {
            node_id: _digest_policy(node.cache)
            for node_id, node in runtime.nodes.items()
        },
        "energy": (
            {
                node_id: (
                    device.battery.capacity,
                    device.battery.charge,
                    device.battery.spent,
                    bool(flags[node_id] & FAILED),
                )
                for node_id, device in radio._nodes.items()
            },
            dict(radio.ledger._cells),
        ),
        "radio": (
            radio.latency,
            _describe_loss(radio.loss_model),
            tuple(topology._positions),
            tuple(topology._ranges),
            dict(runtime.stats._sent_checkpoint),
        ),
        "maintenance": (
            tuple(task.stopped for task in runtime.maintenance._tasks),
            tuple(runtime.maintenance._round_costs),
            runtime.maintenance._rounds,
            runtime.maintenance._round_span is not None,
        ),
        "coordinator": runtime.coordinator.epoch,
    }
    # Un-flushed observation batch (mid-burst checkpoints).  Added only
    # when non-empty, so a run between bursts digests identically to
    # one that applies every sample inside its delivery.
    router = getattr(runtime, "observation_router", None)
    if router is not None and router.pending:
        comps["observations"] = tuple(router.samples())
    return {name: _hexdigest(value) for name, value in comps.items()}


@dataclass(frozen=True)
class StateDigest:
    """Per-component hex digests plus the whole-sim rollup."""

    components: dict[str, str]
    whole: str

    def diff(self, other: "StateDigest") -> list[str]:
        """Component names whose digests differ between the two states."""
        names = set(self.components) | set(other.components)
        return sorted(
            name
            for name in names
            if self.components.get(name) != other.components.get(name)
        )


def _resolve(target: Any) -> tuple[Any, Optional[Any]]:
    """``(simulator, runtime-or-None)`` for any checkpointable target."""
    runtime = None
    if hasattr(target, "nodes") and hasattr(target, "radio"):
        runtime = target
    elif hasattr(target, "runtime"):
        runtime = target.runtime
    if hasattr(target, "clock") and hasattr(target, "queue"):
        simulator = target
    elif runtime is not None:
        simulator = runtime.simulator
    else:
        simulator = target.simulator
    return simulator, runtime


def digest_components(target: Any) -> dict[str, str]:
    """Per-component hex digests of a simulator, runtime, or wrapper.

    Accepts a bare :class:`~repro.simulation.engine.Simulator`, a
    :class:`~repro.core.runtime.SnapshotRuntime`, or any object exposing
    a ``runtime`` attribute (e.g. a chaos run).  Objects may add custom
    components via a ``digest_extra()`` method returning ``{name: value}``.
    """
    simulator, runtime = _resolve(target)
    comps = _digest_simulator(simulator)
    if runtime is not None:
        comps.update(_digest_runtime(runtime))
    extra = getattr(target, "digest_extra", None)
    if callable(extra):
        for name, value in extra().items():
            comps[name] = _hexdigest(value)
    return comps


def state_digest(target: Any) -> StateDigest:
    """The canonical :class:`StateDigest` of ``target``'s current state."""
    components = digest_components(target)
    whole = _hexdigest(tuple(sorted(components.items())))
    return StateDigest(components=components, whole=whole)


class RoundDigestRecorder:
    """Records the whole-sim digest at every maintenance-round boundary.

    Subscribes to the ``maintenance.round`` trace records the
    :class:`~repro.core.maintenance.MaintenanceManager` emits; each
    firing appends ``(round_index, whole_digest)``.  Digesting reads
    state without consuming RNG draws or mutating anything, so an armed
    recorder never perturbs the trajectory — and the recorder itself
    survives checkpoint/restore (its subscription callback is a bound
    method reachable from the runtime's trace log).
    """

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime
        self.rounds: list[tuple[int, str]] = []
        self._subscription = runtime.simulator.trace.subscribe(
            "maintenance.round", self._on_round
        )

    def _on_round(self, record: Any) -> None:
        self.rounds.append((record.payload["index"], state_digest(self.runtime).whole))

    def close(self) -> None:
        """Detach from the trace log (idempotent)."""
        self._subscription.cancel()
