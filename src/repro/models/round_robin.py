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
from typing import Optional

from repro.models.cache import CacheLine
from repro.models.policy import Action, CachePolicy

__all__ = ["RoundRobinCache"]


class RoundRobinCache(CachePolicy):
    """Admit always; evict the globally oldest pair when full."""

    def __init__(self, cache_bytes: int) -> None:
        super().__init__(cache_bytes)
        self._lines: dict[int, CacheLine] = {}
        self._total_pairs = 0
        # Per-pair insertion order: the neighbor id whose line received
        # each stored pair, oldest first.  Evicting the front id's
        # oldest pair is exact global FIFO.
        self._insertion_order: deque[int] = deque()

    @property
    def total_pairs(self) -> int:
        """Pairs currently stored across all lines (O(1) running count)."""
        return self._total_pairs

    def known_neighbors(self) -> list[int]:
        """Neighbors with at least one stored pair, ascending id."""
        return sorted(self._lines)

    def line(self, neighbor_id: int) -> Optional[CacheLine]:
        """The cache line for ``neighbor_id``, or ``None``."""
        return self._lines.get(neighbor_id)

    def observe(self, neighbor_id: int, own_value: float, neighbor_value: float) -> str:
        """Store the pair, evicting the globally oldest one if needed."""
        evicted = self.is_full
        if evicted:
            victim = self._insertion_order.popleft()
            line = self._lines[victim]
            line.evict_oldest()
            if not line:
                del self._lines[victim]
        else:
            self._total_pairs += 1
        line = self._lines.get(neighbor_id)
        if line is None:
            line = self._lines[neighbor_id] = CacheLine(neighbor_id)
        line.append(own_value, neighbor_value)
        self._insertion_order.append(neighbor_id)
        return Action.SHIFT if evicted else Action.APPEND

    def digest_state(self) -> tuple:
        """Canonical state: the shared line state plus the global FIFO order."""
        return super().digest_state() + (tuple(self._insertion_order),)
