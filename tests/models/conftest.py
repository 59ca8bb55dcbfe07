"""Shared helpers for the model-cache tests."""

from __future__ import annotations

from repro.models.cache_manager import ModelAwareCache
from repro.models.soa import ModelAwareCacheFleet


def bound_lanes(fleet: ModelAwareCacheFleet) -> list[ModelAwareCache]:
    """One empty cache bound to each lane: the fleet's read surface.

    A bound cache answers ``digest_state()`` and ``line(j)`` from its
    lane's columns, so two fleets (or a fleet and scalar caches) compare
    through the same API the runtime's digests read.
    """
    caches = [ModelAwareCache(fleet.cache_bytes) for _ in range(fleet.F)]
    for lane, cache in enumerate(caches):
        cache.bind_fleet(fleet, lane)
    return caches
