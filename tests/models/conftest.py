"""Shared helpers for the model-cache tests."""

from __future__ import annotations

from repro.models.cache_manager import ModelAwareCache
from repro.models.soa import ModelAwareCacheFleet


def bound_lanes(fleet: ModelAwareCacheFleet) -> list[ModelAwareCache]:
    """One empty cache bound to each lane: the fleet's read surface.

    A bound cache answers ``digest_state()`` and ``line(j)`` from its
    lane's columns, so two fleets (or a fleet and the scalar oracle)
    compare through the same API the runtime's digests read.
    """
    caches = [ModelAwareCache(fleet.cache_bytes) for _ in range(fleet.F)]
    for lane, cache in enumerate(caches):
        cache.bind_fleet(fleet, lane)
    return caches


def lane_scores(cache: ModelAwareCache, neighbor_id: int) -> tuple:
    """``(fit, benefit, eviction penalty)`` of a line, from the fleet's
    memo columns: what an oracle line scores for itself."""
    fleet = cache._fleet
    r = fleet._row(cache._lane, neighbor_id)
    return fleet._current_fit(r), fleet._benefit_scalar(r), fleet._penalty_scalar(r)


def oracle_scores(line) -> tuple:
    """The same triple, scored by an oracle line."""
    return line.model_coefficients(), line.benefit(), line.eviction_penalty()
