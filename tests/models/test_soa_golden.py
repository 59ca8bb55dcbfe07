"""Golden-trace equivalence of the fleet engine and the scalar oracle.

The scalar oracle (``tests/models/scalar_oracle.py``, one object per
line) and the cross-cache numpy fleet (a ``ModelAwareCache`` on its
lane, or the fleet driven directly through ``observe_lanes``) must make
the *same decision on every observation* and hold *bit-identical state*
afterwards — that is the contract that lets the fleet be the program's
one §4 engine under the pinned trajectory/digest tests.  Cases named
"block" drive a standalone cache on its private one-lane fleet, so the
fleet's per-lane path and the cache's line copies are pinned too.  Streams are the
correlated neighbor walks the perf bench uses, long enough to cross the
``STATS_SYNC_INTERVAL`` drift-resync boundary many times and to hit
every action (append, newcomer, shift, augment, reject) plus dominant
evictions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.cache import BYTES_PER_PAIR, STATS_SYNC_INTERVAL
from repro.models.cache_manager import ModelAwareCache
from repro.models.soa import ACTION_NAMES, ModelAwareCacheFleet
from repro.persist.digest import canonical_bytes
from tests.models.conftest import bound_lanes, lane_scores, oracle_scores
from tests.models.scalar_oracle import ScalarOracleCache


def correlated_stream(length: int, neighbors: int = 8, seed: int = 42):
    """(neighbor_id, own_value, neighbor_value) triples, bench-style."""
    rng = np.random.default_rng(seed)
    slopes = rng.uniform(0.5, 2.0, size=neighbors)
    intercepts = rng.uniform(-5.0, 5.0, size=neighbors)
    own = np.cumsum(rng.normal(0.0, 1.0, size=length)) + 20.0
    ids = rng.integers(0, neighbors, size=length)
    noise = rng.normal(0.0, 0.5, size=length)
    out = []
    for k in range(length):
        j = int(ids[k])
        x = float(own[k])
        out.append((j, x, float(slopes[j] * x + intercepts[j] + noise[k])))
    return out


def adversarial_stream(length: int, neighbors: int, seed: int):
    """A stream engineered to hit dominant evictions and exact ties."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(length):
        j = int(rng.integers(0, neighbors))
        kind = rng.integers(0, 4)
        if kind == 0:  # huge outlier → dominant-sum evictions later
            x = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e3, 1e5))
            y = x * 2.0
        elif kind == 1:  # exactly collinear → zero penalties, exact ties
            x = float(k % 7)
            y = 3.0 * x + 1.0
        elif kind == 2:  # tiny noise near zero
            x = float(rng.normal(0.0, 1e-3))
            y = float(rng.normal(0.0, 1e-3))
        else:
            x = float(rng.normal(0.0, 10.0))
            y = float(rng.normal(0.0, 10.0))
        out.append((j, x, y))
    return out


def block_state(cache) -> dict:
    """Engine-independent canonical state of a §4 cache."""
    lines = {}
    for j in cache.known_neighbors():
        line = cache.line(j)
        st = line.stats
        lines[j] = (
            tuple(line.pairs),
            (st.n, st.sum_x, st.sum_y, st.sum_xx, st.sum_xy, st.sum_yy),
            line.evictions_since_sync,
        )
    cursor = cache.digest_state()[-1]
    return {"lines": lines, "total": cache.total_pairs, "rr_cursor": cursor}


@pytest.mark.parametrize("stream_fn,seed", [
    (correlated_stream, 42),
    (correlated_stream, 7),
    (adversarial_stream, 3),
])
@pytest.mark.parametrize("capacity", [8, 48])
def test_scalar_and_block_bitwise_identical(stream_fn, seed, capacity):
    scalar = ScalarOracleCache(BYTES_PER_PAIR * capacity)
    block = ModelAwareCache(BYTES_PER_PAIR * capacity)
    stream = (
        stream_fn(3000, 6, seed)
        if stream_fn is adversarial_stream
        else stream_fn(3000, neighbors=6, seed=seed)
    )
    evictions_seen = 0
    for step, (j, x, y) in enumerate(stream):
        a_s = scalar.observe(j, x, y)
        a_b = block.observe(j, x, y)
        assert a_s == a_b, f"step {step}: scalar={a_s} block={a_b}"
        if a_s in ("shift", "augment", "newcomer"):
            evictions_seen += 1
        if step % 500 == 0:
            # canonical_bytes is bitwise-strict (distinguishes -0.0/0.0)
            assert canonical_bytes(block_state(block)) == canonical_bytes(
                block_state(scalar)
            ), f"state diverged by step {step}"
    assert canonical_bytes(block.digest_state()) == canonical_bytes(
        scalar.digest_state()
    )
    # the run exercised the drift-resync boundary, not just steady state
    assert evictions_seen > STATS_SYNC_INTERVAL


def test_scalar_and_block_agree_on_benefit_penalty_columns():
    """Every memoized §4 quantity matches the oracle's value exactly."""
    scalar = ScalarOracleCache(BYTES_PER_PAIR * 24)
    block = ModelAwareCache(BYTES_PER_PAIR * 24)
    for j, x, y in correlated_stream(1500, neighbors=5, seed=11):
        assert scalar.observe(j, x, y) == block.observe(j, x, y)
    assert scalar.known_neighbors() == block.known_neighbors()
    for j in scalar.known_neighbors():
        assert oracle_scores(scalar.line(j)) == lane_scores(block, j)
        assert scalar.line(j).stats.fit() == block.line(j).stats.fit()


@pytest.mark.parametrize("n_caches,steps,cache_bytes", [(64, 1000, 128)])
def test_fleet_bitwise_identical_to_scalar(n_caches, steps, cache_bytes):
    """Every lane of the fleet replays its scalar reference exactly.

    64 independent caches × 1000 lock-step batches: per-step actions
    and the complete final state (pairs, sums, resync counters, cursor)
    must match a scalar oracle cache fed the same per-lane
    stream.  Small capacity forces heavy eviction traffic across the
    ``STATS_SYNC_INTERVAL`` boundary in every lane.
    """
    refs = [ScalarOracleCache(cache_bytes) for _ in range(n_caches)]
    fleet = ModelAwareCacheFleet(
        n_caches, cache_bytes, max_lines=8, ring_cap=32
    )
    lanes = bound_lanes(fleet)
    streams = [
        correlated_stream(steps, neighbors=6, seed=1000 + c)
        for c in range(n_caches)
    ]
    for t in range(steps):
        js = np.array([streams[c][t][0] for c in range(n_caches)])
        xs = np.array([streams[c][t][1] for c in range(n_caches)])
        ys = np.array([streams[c][t][2] for c in range(n_caches)])
        codes = fleet.observe_lanes(np.arange(n_caches), js, xs, ys)
        for c in range(n_caches):
            expected = refs[c].observe(int(js[c]), float(xs[c]), float(ys[c]))
            got = ACTION_NAMES[int(codes[c])]
            assert got == expected, f"lane {c} step {t}: {got} != {expected}"
    for c in range(n_caches):
        want = block_state(refs[c])
        assert canonical_bytes(block_state(lanes[c])) == canonical_bytes(want), (
            f"lane {c} final state diverged"
        )


def test_fleet_ring_growth_preserves_state():
    """Ring doubling mid-run is a pure relayout: lanes keep matching."""
    n_caches = 8
    refs = [ScalarOracleCache(512) for _ in range(n_caches)]
    fleet = ModelAwareCacheFleet(n_caches, 512, max_lines=4, ring_cap=4)
    lanes = bound_lanes(fleet)
    streams = [
        correlated_stream(400, neighbors=3, seed=50 + c) for c in range(n_caches)
    ]
    grew = False
    for t in range(400):
        js = np.array([streams[c][t][0] for c in range(n_caches)])
        xs = np.array([streams[c][t][1] for c in range(n_caches)])
        ys = np.array([streams[c][t][2] for c in range(n_caches)])
        codes = fleet.observe_lanes(np.arange(n_caches), js, xs, ys)
        if fleet.C > 4:
            grew = True
        for c in range(n_caches):
            assert ACTION_NAMES[int(codes[c])] == refs[c].observe(
                int(js[c]), float(xs[c]), float(ys[c])
            )
    assert grew, "test never exercised _grow_rings"
    for c in range(n_caches):
        assert canonical_bytes(block_state(lanes[c])) == canonical_bytes(
            block_state(refs[c])
        )


#: Every per-row and per-cache column of a fleet, compared raw.
FLEET_COLUMNS = ModelAwareCacheFleet._ROW_COLUMNS + ("rx", "ry", "total", "rr")

#: Memo columns and their valid flags.  The column path refreshes
#: stale penalty memos fleet-wide where the scalar path refreshes them
#: lazily, so with warm lanes in the batch a memo is compared only
#: where both fleets hold it, and the valid flags are not compared.
MEMO_COLUMNS = {"fa": "fok", "fb": "fok", "ben": "bok", "pen": "pok"}


@pytest.mark.parametrize("mixed", [False, True], ids=["first-only", "mixed"])
def test_first_samples_match_scalar_observe_column_for_column(mixed):
    """A neighbor's first sample through ``observe_lanes`` equals the
    scalar ``observe``: the same action and the same raw columns, slot
    indices and slot dicts included.  Covered: caches below budget
    claiming their lowest free slot (holes left by freed lines too),
    caches at budget (newcomer eviction) and caches with no free slot
    (line growth).  "first-only" feeds known neighbors' samples
    through the scalar ``observe`` on both fleets, so the batch sees
    only first samples; "mixed" sends every lane through one
    ``observe_lanes`` call, so slot claims, warm appends and full-cache
    decisions share it (with line growth ahead of the column path).
    """
    n_caches, cache_bytes = 16, 12 * BYTES_PER_PAIR
    batched = ModelAwareCacheFleet(n_caches, cache_bytes, max_lines=2, ring_cap=4)
    scalar = ModelAwareCacheFleet(n_caches, cache_bytes, max_lines=2, ring_cap=4)
    rng = np.random.default_rng(31)
    seen = {"claim": 0, "newcomer": 0, "growth": 0}
    if mixed:
        seen.update(warm=0, column=0)
    for _ in range(300):
        js = rng.integers(0, 10, size=n_caches)
        xs = rng.normal(0.0, 10.0, size=n_caches)
        ys = 2.0 * xs + rng.normal(0.0, 1.0, size=n_caches)
        first = [c for c in range(n_caches) if int(js[c]) not in scalar.slot[c]]
        if mixed:
            first = list(range(n_caches))
        for c in range(n_caches):
            if c not in first:
                for fleet in (batched, scalar):
                    fleet.observe(c, int(js[c]), float(xs[c]), float(ys[c]))
        if not first:
            continue
        lines = batched.S
        codes = batched.observe_lanes(first, js[first], xs[first], ys[first])
        seen["growth"] += batched.S > lines
        for c, code in zip(first, codes.tolist()):
            free = (scalar.ids[c * scalar.S:(c + 1) * scalar.S] < 0).any()
            below = scalar.total[c] < scalar.capacity_pairs
            if int(js[c]) in scalar.slot[c]:
                seen["warm" if below else "column"] += 1
            else:
                seen["claim"] += bool(free and below)
            action = scalar.observe(c, int(js[c]), float(xs[c]), float(ys[c]))
            seen["newcomer"] += action == "newcomer"
            assert ACTION_NAMES[code] == action
        assert (batched.S, batched.C) == (scalar.S, scalar.C)
        assert batched.slot == scalar.slot
        for name in FLEET_COLUMNS:
            ours, theirs = getattr(batched, name), getattr(scalar, name)
            if mixed and name in MEMO_COLUMNS.values():
                continue
            if mixed and name in MEMO_COLUMNS:
                flag = MEMO_COLUMNS[name]
                both = getattr(batched, flag) & getattr(scalar, flag)
                ours, theirs = ours[both], theirs[both]
            assert np.array_equal(ours, theirs), name
    assert all(seen.values()), seen


def test_append_runs_match_scalar_observe_column_for_column():
    """``append_runs`` applies a run's warm-up caches in one pass and
    leaves the rest: followed by the scalar ``observe`` of what it left,
    in arrival order, it equals the scalar ``observe`` of every sample.
    Same actions, raw columns, slot indices and slot dicts.  Covered:
    caches applied (new neighbors claiming free slots, holes included),
    and caches left for filling inside the run, hearing a neighbor
    twice, or lacking a free slot."""
    n_caches, cache_bytes = 12, 12 * BYTES_PER_PAIR
    batched = ModelAwareCacheFleet(n_caches, cache_bytes, max_lines=3, ring_cap=4)
    scalar = ModelAwareCacheFleet(n_caches, cache_bytes, max_lines=3, ring_cap=4)
    rng = np.random.default_rng(7)
    seen = {"applied": 0, "claimed": 0, "fills": 0, "twice": 0, "no-slot": 0}
    for _ in range(200):
        caches = rng.choice(n_caches, size=int(rng.integers(1, n_caches)), replace=False)
        cs = np.repeat(caches, rng.integers(1, 4, size=caches.size))
        rng.shuffle(cs)
        js = rng.integers(0, 6, size=cs.size)
        xs = rng.normal(0.0, 10.0, size=cs.size)
        ys = 2.0 * xs + rng.normal(0.0, 1.0, size=cs.size)
        for c in np.unique(cs).tolist():
            mine = js[cs == c]
            fresh = len(set(mine.tolist()) - set(scalar.slot[c]))
            if scalar.total[c] + mine.size > scalar.capacity_pairs:
                seen["fills"] += 1
            elif len(set(mine.tolist())) < mine.size:
                seen["twice"] += 1
            elif fresh > int((scalar.ids[c * scalar.S:(c + 1) * scalar.S] < 0).sum()):
                seen["no-slot"] += 1
        applied = batched.append_runs(cs, js, xs, ys)
        for i in range(cs.size):
            args = (int(cs[i]), int(js[i]), float(xs[i]), float(ys[i]))
            claims = args[1] not in scalar.slot[args[0]]
            action = scalar.observe(*args)
            if applied[i]:
                assert action == "append"
                seen["applied"] += 1
                seen["claimed"] += claims
            else:
                assert batched.observe(*args) == action
        assert (batched.S, batched.C) == (scalar.S, scalar.C)
        assert batched.slot == scalar.slot
        for name in FLEET_COLUMNS:
            ours, theirs = getattr(batched, name), getattr(scalar, name)
            if name in MEMO_COLUMNS.values():
                continue
            if name in MEMO_COLUMNS:
                flag = MEMO_COLUMNS[name]
                both = getattr(batched, flag) & getattr(scalar, flag)
                ours, theirs = ours[both], theirs[both]
            assert np.array_equal(ours, theirs), name
    assert all(seen.values()), seen
