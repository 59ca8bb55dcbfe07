"""Measurement datasets.

A :class:`Dataset` holds one time series per sensor node — the ground
truth the simulated sensors "measure".  The simulation addresses values
by (node id, simulated time); time indexes are floored to the latest
sample at or before ``t`` (a sensor reports its most recent reading).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Dataset"]


class Dataset:
    """Per-node measurement series, shape ``(n_nodes, length)``.

    Parameters
    ----------
    values:
        Array-like of shape ``(n_nodes, length)``; row ``i`` is node
        ``i``'s measurement series.
    """

    def __init__(self, values: np.ndarray | Sequence[Sequence[float]]) -> None:
        array = np.asarray(values, dtype=float)
        if array.ndim != 2:
            raise ValueError(f"dataset must be 2-D (nodes x time), got shape {array.shape}")
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise ValueError(f"dataset must be non-empty, got shape {array.shape}")
        self._values = array

    @property
    def n_nodes(self) -> int:
        """Number of node series."""
        return self._values.shape[0]

    @property
    def length(self) -> int:
        """Number of samples per series."""
        return self._values.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The raw ``(n_nodes, length)`` array (a view; treat as read-only)."""
        return self._values

    def series(self, node_id: int) -> np.ndarray:
        """Node ``node_id``'s full series."""
        return self._values[node_id]

    def value(self, node_id: int, time: float) -> float:
        """Measurement of ``node_id`` at simulated ``time``.

        Time is floored to the most recent sample; querying before the
        first sample raises, querying past the end returns the last
        sample (the sensor keeps reporting its latest reading).
        """
        return float(self._values[node_id, self._index(time)])

    def values_at(self, node_ids: Sequence[int], time: float) -> list[float]:
        """:meth:`value` of each of ``node_ids`` at ``time``, in one gather."""
        return self._values[node_ids, self._index(time)].tolist()

    def _index(self, time: float) -> int:
        if time < 0:
            raise ValueError(f"cannot read a measurement at negative time {time}")
        if time != time:
            raise ValueError("cannot read a measurement at time NaN")
        last = self.length - 1
        return last if time >= last else int(time)

    def __repr__(self) -> str:
        return f"Dataset(n_nodes={self.n_nodes}, length={self.length})"
