"""The round-robin / FIFO baseline cache (Figure 8's comparator).

The paper notes that for the write-mostly access pattern of model
building — a stream of observations ending in a single "read" at
discovery time — round-robin, FIFO and LRU coincide.  This baseline
admits every observation and, when full, evicts the globally oldest
stored pair, implemented exactly by keeping the insertion order of
pairs across lines.
"""

from __future__ import annotations

from collections import deque

from repro.models.policy import Action, CachePolicy

__all__ = ["RoundRobinCache"]


class RoundRobinCache(CachePolicy):
    """Admit always; evict the globally oldest pair when full."""

    def __init__(self, cache_bytes: int) -> None:
        super().__init__(cache_bytes)
        # Per-pair insertion order: the neighbor id whose line received
        # each stored pair, oldest first.  Evicting the front id's
        # oldest pair is exact global FIFO.
        self._insertion_order: deque[int] = deque()

    def observe(self, neighbor_id: int, own_value: float, neighbor_value: float) -> str:
        """Store the pair, evicting the globally oldest one if needed."""
        evicted = False
        if self.is_full:
            victim = self._insertion_order.popleft()
            self._evict_oldest_of(victim)
            evicted = True
        line = self._line_or_new(neighbor_id)
        self._append_pair(line, float(own_value), float(neighbor_value))
        self._insertion_order.append(neighbor_id)
        self._check_capacity_invariant()
        return Action.SHIFT if evicted else Action.APPEND

    def digest_state(self) -> tuple:
        """Canonical state: the shared line state plus the global FIFO order."""
        return super().digest_state() + (tuple(self._insertion_order),)
