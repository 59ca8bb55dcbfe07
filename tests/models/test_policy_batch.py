"""Batch parity for cache policies and the fleet's lane sweep.

Two layers of the batched-rounds equivalence argument, pinned at the
model level:

* ``CachePolicy.observe_batch`` equals the loop of scalar ``observe``
  calls for *both* policies (within one cache, observations are
  order-dependent, so the batch is defined as the loop);
* ``ModelAwareCacheFleet.observe_lanes`` — the kernel the
  ``BatchedObservationRouter`` sweeps per wave — equals per-lane scalar
  application, wave order interleaved arbitrarily across lanes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.cache import BYTES_PER_PAIR
from repro.models.cache_manager import ModelAwareCache
from repro.models.round_robin import RoundRobinCache
from repro.models.soa import ACTION_NAMES, ModelAwareCacheFleet

BUDGET = BYTES_PER_PAIR * 24
#: Neighbor-id universe; kept within the fleet's ``max_lines`` so a
#: lane can always hold one line per distinct key (the invariant the
#: runtime's fleet sizing guarantees: lines = min(in-degree, capacity)).
MAX_LINES = 6

_value = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
_sample = st.tuples(st.integers(0, MAX_LINES - 1), _value, _value)
_stream = st.lists(_sample, min_size=1, max_size=120)


@given(stream=_stream)
@settings(max_examples=40, deadline=None)
def test_observe_batch_equals_scalar_loop(stream):
    js = [s[0] for s in stream]
    xs = [s[1] for s in stream]
    ys = [s[2] for s in stream]
    for factory in (
        lambda: ModelAwareCache(BUDGET),
        lambda: RoundRobinCache(BUDGET),
    ):
        batched, scalar = factory(), factory()
        got = batched.observe_batch(js, xs, ys)
        want = [scalar.observe(j, x, y) for j, x, y in stream]
        assert got == want
        assert batched.digest_state() == scalar.digest_state()


def _fleet_with_twins(n_lanes):
    """A fleet plus (fleet-backed, scalar) ModelAwareCache pairs per lane."""
    fleet = ModelAwareCacheFleet(
        n_lanes, BUDGET, max_lines=MAX_LINES, ring_cap=4
    )
    backed, twins = [], []
    for lane in range(n_lanes):
        cache = ModelAwareCache(BUDGET)
        cache.bind_fleet(fleet, lane)
        backed.append(cache)
        twins.append(ModelAwareCache(BUDGET))
    return fleet, backed, twins


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_fleet_lane_sweep_matches_scalar(data):
    n_lanes = data.draw(st.integers(2, 5), label="n_lanes")
    fleet, backed, twins = _fleet_with_twins(n_lanes)
    n_waves = data.draw(st.integers(1, 15), label="n_waves")
    for wave in range(n_waves):
        lanes = data.draw(
            st.lists(
                st.sampled_from(range(n_lanes)),
                unique=True,
                min_size=1,
                max_size=n_lanes,
            ),
            label=f"wave{wave}",
        )
        samples = data.draw(
            st.lists(_sample, min_size=len(lanes), max_size=len(lanes)),
            label=f"samples{wave}",
        )
        cs = np.array(lanes, dtype=np.int64)
        js = np.array([s[0] for s in samples], dtype=np.int64)
        xs = np.array([s[1] for s in samples])
        ys = np.array([s[2] for s in samples])
        codes = fleet.observe_lanes(cs, js, xs, ys)
        for lane, (j, x, y), code in zip(lanes, samples, codes.tolist()):
            assert ACTION_NAMES[int(code)] == twins[lane].observe(j, x, y)
    for lane in range(n_lanes):
        assert backed[lane].digest_state() == twins[lane].digest_state()


# ----------------------------------------------------------------------
# warm-up lanes: observe_lanes == per-lane sequential scalar observe
# ----------------------------------------------------------------------

#: A small pair budget so caches cross ``capacity_pairs`` within a few
#: calls, more neighbor ids than initial line slots so ``_grow_lines``
#: fires, and a tiny ring so ``_grow_rings`` fires on warm appends.
WARM_BUDGET = BYTES_PER_PAIR * 8
WARM_IDS = 4


def _filled(n_lanes, fills, budget=WARM_BUDGET, **sizes):
    """A fleet and its twin after the same scalar ``observe`` fills,
    given as ``(lane, neighbor, x, y)``."""
    fleet = ModelAwareCacheFleet(n_lanes, budget, **sizes)
    twin = ModelAwareCacheFleet(n_lanes, budget, **sizes)
    for c, j, x, y in fills:
        fleet.observe(c, j, x, y)
        twin.observe(c, j, x, y)
    return fleet, twin


def _lockstep(fleet, twin, cs, js, xs, ys):
    """One ``observe_lanes`` call on ``fleet``; the same samples through
    the scalar ``observe`` of ``twin``, lane by lane.  Asserts equal
    actions and equal per-lane state, and returns the action names."""
    got = [ACTION_NAMES[int(code)] for code in fleet.observe_lanes(cs, js, xs, ys)]
    want = [
        twin.observe(int(c), int(j), float(x), float(y))
        for c, j, x, y in zip(cs, js, xs, ys)
    ]
    assert got == want
    for lane in range(fleet.F):
        assert fleet.cache_state(lane) == twin.cache_state(lane)
    return got


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_observe_lanes_equals_sequential_scalar_through_warmup(data):
    n_lanes = data.draw(st.integers(2, 5), label="n_lanes")
    ring_cap = data.draw(st.integers(2, 4), label="ring_cap")
    affine = data.draw(st.booleans(), label="affine")
    fleet, twin = _filled(n_lanes, [], max_lines=2, ring_cap=ring_cap)
    for call in range(data.draw(st.integers(1, 30), label="n_calls")):
        lanes = data.draw(
            st.lists(st.sampled_from(range(n_lanes)), unique=True,
                     min_size=1, max_size=n_lanes),
            label=f"lanes{call}",
        )
        samples = data.draw(
            st.lists(st.tuples(st.integers(0, WARM_IDS - 1), _value, _value),
                     min_size=len(lanes), max_size=len(lanes)),
            label=f"samples{call}",
        )
        xs = np.array([s[1] for s in samples])
        # The paper's classes are exactly affine, which ties every
        # benefit comparison; noisy values exercise the plain compare.
        ys = 2.0 * xs + 1.0 if affine else np.array([s[2] for s in samples])
        _lockstep(
            fleet, twin, np.array(lanes, dtype=np.int64),
            np.array([s[0] for s in samples], dtype=np.int64), xs, ys,
        )


def test_one_call_mixes_warm_full_and_new_neighbor_lanes():
    cap = ModelAwareCacheFleet(1, WARM_BUDGET).capacity_pairs
    fills = []
    for k in range(cap):  # lanes 0 and 1 full, over neighbors {0, 1}
        x = float(k)
        fills += [(0, k % 2, x, 3.0 * x + (k % 3)), (1, k % 2, x, -x + 0.5 * k)]
    fills += [(3, 0, 5.0, 1.0)]  # lane 3 warm
    fleet, twin = _filled(4, fills, max_lines=2, ring_cap=3)
    row = 2 * fleet.S  # lane 2 warm, its ring filled to C - 1
    while int(fleet.n[row]) < fleet.C - 1:
        x = float(fleet.n[row])
        fleet.observe(2, 0, x, 2.0 * x + 0.25)
        twin.observe(2, 0, x, 2.0 * x + 0.25)
    assert fleet.total[2] < fleet.capacity_pairs
    ring = fleet.C  # the next append to lane 2 grows every ring
    got = _lockstep(
        fleet, twin,
        np.array([2, 0, 1, 3], dtype=np.int64),
        np.array([0, 1, 3, 1], dtype=np.int64),
        np.array([3.0, 40.0, 7.0, 6.0]),
        np.array([6.5, -12.0, 2.0, 0.0]),
    )
    assert got[0] == "append" and got[1] in ("reject", "shift", "augment")
    assert got[2] == "newcomer" and got[3] == "append"
    assert fleet.C > ring


def test_full_lanes_after_line_growth_use_the_new_stride():
    """Regression: a first-sample lane that grows the line slots must
    not leave later full-cache lanes of the same call on the old stride
    (it raised ``ValueError: cannot reshape array``)."""
    cap = ModelAwareCacheFleet(1, 512).capacity_pairs
    fills = [(0, 1 + k % 2, float(k), 2.0 * k + 1.0 + (k % 5)) for k in range(cap)]
    fills += [(1, 1, 1.0, 1.0), (1, 1, 2.0, 2.0), (1, 2, 3.0, 1.0), (1, 2, 4.0, 0.0)]
    fleet, twin = _filled(2, fills, budget=512, max_lines=2)
    _lockstep(
        fleet, twin, np.array([1, 0]), np.array([3, 1]),
        np.array([5.0, 9.0]), np.array([5.0, -40.0]),
    )
    assert fleet.S > 2
