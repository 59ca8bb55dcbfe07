"""Pickles in the layouts that older checkpoints were written in.

:class:`LegacyPickler` writes today's objects the way earlier code
pickled them, so the restore paths for old checkpoints stay tested:

* ``"energy"`` — before energy and delivery counts were columns: each
  battery holds its ``_charge`` and ``_spent`` (and points at its
  device's liveness byte), the device state holds only the liveness
  bytes, the ledger cells and the delivery counts are plain ``Counter``
  objects shared with their registry metrics, and the observation
  router's batch is a list of ``[node, neighbor, own, value]`` lists;
* ``"liveness"`` — also before liveness was a column: a ``_failed``
  flag on each device and no device state on the radio.

Both layouts predate the retirement of fleet mode, so each runtime
also carries the state in :data:`RETIRED_RUNTIME_STATE`.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from collections import Counter

from repro.core.round_batch import BatchedObservationRouter
from repro.core.runtime import SnapshotRuntime
from repro.energy.accounting import EnergyLedger
from repro.energy.battery import Battery
from repro.network.node import NetworkNode
from repro.network.radio import Radio
from repro.network.state import DeviceState
from repro.network.stats import MessageStats
from repro.obs.registry import ColumnCounter, CounterMetric, MetricsRegistry

LAYOUTS = ("energy", "liveness")

#: Runtime attributes that older code pickled and today's code no
#: longer defines: fleet mode's (always empty) list of slice hooks.
RETIRED_RUNTIME_STATE = {"slice_hooks": []}


class LegacyPickler(pickle.Pickler):
    """Writes the object graph in one of the older :data:`LAYOUTS`."""

    def __init__(self, file, layout: str) -> None:
        assert layout in LAYOUTS
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.layout = layout
        # id(column counter) -> (its plain Counter, the CounterMetric
        # holding it, the column counter itself, kept alive).
        self._plain: dict[int, tuple] = {}

    def _counter(self, column: ColumnCounter) -> tuple[Counter, CounterMetric]:
        """One shared plain ``Counter`` (and metric) per column counter."""
        found = self._plain.get(id(column))
        if found is None:
            cells = Counter(column.cells)
            metric = object.__new__(CounterMetric)
            metric.__dict__.update(
                name=column.name,
                label_names=column.label_names,
                _gate=column._gate,
                cells=cells,
            )
            found = self._plain[id(column)] = (cells, metric, column)
        return found[0], found[1]

    def reducer_override(self, obj):
        liveness = self.layout == "liveness"
        if isinstance(obj, NetworkNode) and liveness:
            state = {
                key: value
                for key, value in obj.__dict__.items()
                if key not in ("_flags", "_slot")
            }
            state["_failed"] = obj.failed
        elif isinstance(obj, Radio) and liveness:
            state = {k: v for k, v in obj.__dict__.items() if k != "devices"}
        elif isinstance(obj, DeviceState):
            state = {"flags": obj.flags}
        elif isinstance(obj, Battery):
            state = {
                "_capacity": obj.capacity,
                "_charge": obj.charge,
                "_spent": obj.spent,
                "_on_depleted": obj._state.callbacks.get(obj._slot),
            }
            if not liveness:
                state.update(_flags=obj._state.flags, _slot=obj._slot)
        elif isinstance(obj, EnergyLedger):
            state = dict(obj.__dict__, _cells=self._counter(obj._cells)[0])
        elif isinstance(obj, MessageStats):
            state = dict(obj.__dict__, delivered=self._counter(obj.delivered)[0])
        elif isinstance(obj, MetricsRegistry):
            metrics = {
                name: (
                    self._counter(metric)[1]
                    if isinstance(metric, ColumnCounter)
                    else metric
                )
                for name, metric in obj._metrics.items()
            }
            state = dict(obj.__dict__, _metrics=metrics)
        elif isinstance(obj, SnapshotRuntime):
            state = dict(obj.__dict__, **RETIRED_RUNTIME_STATE)
        elif isinstance(obj, BatchedObservationRouter):
            pending = [
                [None if node_id == -1 else obj.nodes[node_id], neighbor, own, value]
                for node_id, neighbor, own, value in zip(
                    obj.pending, obj._neighbors, obj._owns, obj._values
                )
            ]
            columns = ("nodes", "_neighbors", "_owns", "_values")
            routing = ("_routed", "_lanes", "_scales")
            state = {
                k: v for k, v in obj.__dict__.items() if k not in columns + routing
            }
            state.update(pending=pending, _route={})
        else:
            return NotImplemented
        return copyreg.__newobj__, (type(obj),), state


def legacy_dumps(obj, layout: str) -> bytes:
    """``obj`` pickled in ``layout``."""
    buffer = io.BytesIO()
    LegacyPickler(buffer, layout).dump(obj)
    return buffer.getvalue()


def legacy_roundtrip(obj, layout: str):
    """``obj`` pickled in ``layout`` and unpickled by today's code."""
    return pickle.loads(legacy_dumps(obj, layout))
