"""State-keyed snapshot-result cache.

A snapshot answer is a function of the query, the collection sink and
the network state it was computed at: the representation structure,
the representatives' models and the readings at the current simulated
time.  The serving front end keys that state as
:meth:`~repro.core.runtime.SnapshotRuntime.state_key` — the
structure version, the simulator's event count and clock, and the
runtime's count of liveness writes and resignations — so a result
cached under one key can be
replayed verbatim until the key moves (Islam's correlation-aware
caching argument, applied to whole query results instead of model
lines).

The cache holds entries for a *single* version (key) at a time: the
first access under a newer version flushes everything from the older
one.  Versions are monotone, so a straggler carrying an older version
(a request planned just before an event landed) can neither read nor
write — it simply misses and re-executes against the new state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

__all__ = ["EpochResultCache"]


class EpochResultCache:
    """A bounded, thread-safe, version-scoped LRU of query results.

    Parameters
    ----------
    capacity:
        Maximum number of cached entries; least-recently-used entries
        are evicted beyond it.

    Notes
    -----
    Keys must be hashable — the serving layer uses
    ``(query, sink)``, both frozen value objects.  Values are
    opaque to the cache.  ``hits``/``misses``/``invalidations``/
    ``evictions`` are cumulative counters for the serving metrics.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._version: Optional[tuple] = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def version(self) -> Optional[tuple]:
        """The version (state key) the current entries were computed at."""
        return self._version

    def _sync_version(self, version: tuple) -> bool:
        """Advance to ``version``; returns whether the caller is current.

        A newer version flushes every entry (the state moved); an older
        one marks the caller stale.
        """
        if self._version is None or version == self._version:
            self._version = version
            return True
        if version > self._version:
            if self._entries:
                self._entries.clear()
            self.invalidations += 1
            self._version = version
            return True
        return False

    def get(self, version: tuple, key: Hashable) -> Optional[Any]:
        """The entry at ``key`` if cached under ``version``, else ``None``."""
        with self._lock:
            if not self._sync_version(version):
                self.misses += 1
                return None
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, version: tuple, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key`` for ``version``.

        A write carrying a version older than the cache's is dropped:
        its result was computed against a state that no longer exists.
        """
        with self._lock:
            if not self._sync_version(version):
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        with self._lock:
            self._entries.clear()
