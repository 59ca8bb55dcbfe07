"""Device liveness as one column (see DESIGN.md §10).

:class:`DeviceState` keeps one byte per node id: the :data:`FAILED` bit
(fault injection), the :data:`~repro.energy.battery.DEPLETED` bit (set
by the battery at the draw that empties it) and the :data:`ABSENT` bit
of an id no device is registered under.  A node is alive iff its byte
is 0.  Scalar reads index the ``bytearray``; masks compare a numpy view
of the same buffer, which is rebuilt on unpickle (a pickled view would
be a copy).
"""

from __future__ import annotations

import numpy as np

from repro.energy.battery import DEPLETED

__all__ = ["DeviceState", "FAILED", "DEPLETED", "ABSENT"]

FAILED = 0b001
ABSENT = 0b100


class DeviceState:
    """The liveness byte of every node id ``0..n-1``."""

    def __init__(self, n_nodes: int) -> None:
        self.flags = bytearray([ABSENT]) * n_nodes
        self._view()

    def _view(self) -> None:
        # uint8, not bool: the bytes are bit sets, not valid booleans.
        self.column = np.frombuffer(self.flags, dtype=np.uint8)

    def __getstate__(self) -> dict:
        return {"flags": self.flags}

    def __setstate__(self, state: dict) -> None:
        self.flags = state["flags"]
        self._view()

    def alive_mask(self) -> np.ndarray:
        """Boolean mask over node ids: alive devices."""
        return self.column == 0

    def alive_ids(self) -> list[int]:
        """Ids of alive devices, ascending."""
        return np.flatnonzero(self.column == 0).tolist()

    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` names an alive device; False out of range."""
        flags = self.flags
        return 0 <= node_id < len(flags) and not flags[node_id]
