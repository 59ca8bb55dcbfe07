"""Device state as columns (see DESIGN.md §10).

:class:`DeviceState` keeps, per node id:

* one liveness byte: the :data:`FAILED` bit (fault injection), the
  :data:`DEPLETED` bit (set at the draw that empties the battery) and
  the :data:`ABSENT` bit of an id no device is registered under.  A
  node is alive iff its byte is 0.  Scalar reads index the
  ``bytearray``; masks compare a numpy view of it, made per call;
* the battery's ``charge`` (``inf`` for an infinite battery) and the
  energy ``spent`` so far, as two lists of numbers;
* the ``hooked`` set of ids whose device has attached handlers, so a
  burst looks up only those devices;
* ``changes``: liveness writes (:meth:`set_failed`, the emptying
  draw) and resignations, which may happen outside any event; a state
  key counts it.  A class default of 0 serves a state pickled before
  the count existed.

A :class:`~repro.energy.battery.Battery` is a view of one slot, and the
radio draws whole bursts over ids with :meth:`draw_each`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DeviceState", "FAILED", "DEPLETED", "ABSENT"]

FAILED = 0b001
DEPLETED = 0b010
ABSENT = 0b100


class DeviceState:
    """The liveness byte and energy of every node id ``0..n-1``."""

    changes = 0

    def __init__(self, n_nodes: int) -> None:
        self.flags = bytearray([ABSENT]) * n_nodes
        self.charge: list = [0.0] * n_nodes
        self.spent: list = [0.0] * n_nodes
        #: One-shot depletion callbacks, by slot.
        self.callbacks: dict = {}
        self.hooked: set[int] = set()

    def alive_mask(self) -> np.ndarray:
        """Boolean mask over node ids: alive devices."""
        # uint8, not bool: the bytes are bit sets, not valid booleans.
        return np.frombuffer(self.flags, dtype=np.uint8) == 0

    def alive_ids(self) -> list[int]:
        """Ids of alive devices, ascending."""
        return np.flatnonzero(self.alive_mask()).tolist()

    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` names an alive device; False out of range."""
        flags = self.flags
        return 0 <= node_id < len(flags) and not flags[node_id]

    def set_failed(self, slot: int, failed: bool) -> None:
        """Set or clear ``slot``'s FAILED bit (fault injection)."""
        if failed:
            self.flags[slot] |= FAILED
        else:
            self.flags[slot] &= ~FAILED
        self.changes += 1

    # -- energy --------------------------------------------------------------

    def draw(self, slot: int, amount: float) -> float:
        """Draw ``amount`` from ``slot``'s battery; returns what was drawn.

        A depleted battery gives nothing.  The draw that empties a
        finite battery is clamped to its charge, sets the DEPLETED bit
        and fires the slot's depletion callback, once.
        """
        charge = self.charge[slot]
        if amount < charge:
            self.charge[slot] = charge - amount
            self.spent[slot] += amount
            return amount
        if charge <= 0.0:
            return 0.0
        if charge == math.inf:  # an infinite battery and an infinite draw
            self.spent[slot] += amount
            return amount
        self.charge[slot] = 0.0
        self.spent[slot] += charge
        self.flags[slot] |= DEPLETED
        self.changes += 1
        callback = self.callbacks.pop(slot, None)
        if callback is not None:
            callback()
        return charge

    def draw_each(self, slots, amount: float) -> list[int]:
        """:meth:`draw` ``amount`` from each live slot of ``slots``, in order.

        Returns the slots drawn from: those alive when their turn came.
        """
        flags, charge, spent = self.flags, self.charge, self.spent
        drawn = []
        for slot in slots:
            if flags[slot]:
                continue
            drawn.append(slot)
            left = charge[slot]
            if amount < left:
                charge[slot] = left - amount
                spent[slot] += amount
            else:
                self.draw(slot, amount)
        return drawn
