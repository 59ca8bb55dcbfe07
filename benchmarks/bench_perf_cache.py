"""Cache hot-path microbenchmark: ``observe`` throughput (ops/sec).

Unlike the figure benchmarks, this one measures the *implementation*,
not the paper: the per-observation cost of the §4 decision procedure at
the paper's default 2,048-byte (256-pair) budget.  Version 4 of the
saved record (``results/BENCH_cache.json``) keeps the flat
``ops_per_sec`` keys — a single cache on its own: the model-aware one
is lane 0 of a private fleet, driven one observation at a time — and
two sections:

* ``matrix`` — neighbors ∈ {4, 8, 16, 32} for the round-robin
  baseline;
* ``fleet`` — the §4 engine driving 512 caches in lock-step through
  ``observe_lanes`` over every lane: the entry point the simulator's
  observation router sweeps, and the only model-aware cell with a
  floor.

A single model-aware cache is reported without a floor: one lane of
the fleet pays numpy's per-call overhead on every observation, so its
rate measures the host's load about as much as the engine.

Scales: ``quick`` streams 20k observations per cell, ``paper`` 100k.
"""

from __future__ import annotations

import random
import time

import numpy as np

from conftest import is_paper_scale, run_once

from repro.models.cache_manager import ModelAwareCache
from repro.models.round_robin import RoundRobinCache
from repro.models.soa import ModelAwareCacheFleet

#: The paper's default budget: 2,048 bytes = 256 pairs (§6.1).
CACHE_BYTES = 2048
#: Distinct neighbors feeding the cache (typical §6 node degree).
NEIGHBORS = 8
#: Sweep for the matrix section: sparse grid up to dense §6.2 degrees.
NEIGHBOR_SWEEP = (4, 8, 16, 32)
WARMUP_OBSERVATIONS = 2_000
#: Lanes in the fleet cell — enough caches that per-step numpy kernel
#: overhead amortizes (a real Fig-8 sweep runs hundreds of nodes).
FLEET_LANES = 512
FLEET_REPS = 3


def correlated_stream(
    length: int, neighbors: int = NEIGHBORS, seed: int = 42
) -> list[tuple[int, float, float]]:
    """A seeded stream of ``(neighbor, x_i, x_j)`` correlated random walks."""
    rng = random.Random(seed)
    own = 0.0
    walks = {j: rng.uniform(-5.0, 5.0) for j in range(neighbors)}
    stream = []
    for _ in range(length):
        own += rng.gauss(0.0, 1.0)
        j = rng.randrange(neighbors)
        walks[j] += rng.gauss(0.0, 1.0)
        stream.append((j, own, 0.8 * own + walks[j]))
    return stream


def throughput(policy, stream) -> float:
    """Feed ``stream`` after a warm-up fill; observations per second."""
    for obs in stream[:WARMUP_OBSERVATIONS]:
        policy.observe(*obs)
    measured = stream[WARMUP_OBSERVATIONS:]
    start = time.perf_counter()
    for obs in measured:
        policy.observe(*obs)
    elapsed = time.perf_counter() - start
    return len(measured) / elapsed


def fleet_throughput(steps: int) -> float:
    """Aggregate obs/sec of ``observe_lanes`` across FLEET_LANES caches.

    Warm-up fills every lane past its capacity, then the best of
    FLEET_REPS timed passes is reported — the fleet is steady-state by
    construction, so repetition only removes scheduler noise.
    """
    warmup = 50
    streams = [
        correlated_stream(steps + warmup, seed=1_000 + lane)
        for lane in range(FLEET_LANES)
    ]
    js = np.array([[s[t][0] for s in streams] for t in range(steps + warmup)])
    xs = np.array([[s[t][1] for s in streams] for t in range(steps + warmup)])
    ys = np.array([[s[t][2] for s in streams] for t in range(steps + warmup)])
    fleet = ModelAwareCacheFleet(FLEET_LANES, CACHE_BYTES, max_lines=NEIGHBORS)
    lanes = np.arange(FLEET_LANES)
    for t in range(warmup):
        fleet.observe_lanes(lanes, js[t], xs[t], ys[t])
    best = 0.0
    for _ in range(FLEET_REPS):
        start = time.perf_counter()
        for t in range(warmup, steps + warmup):
            fleet.observe_lanes(lanes, js[t], xs[t], ys[t])
        elapsed = time.perf_counter() - start
        best = max(best, FLEET_LANES * steps / elapsed)
    return best


def test_bench_cache_observe_throughput(benchmark, report):
    length = 100_000 if is_paper_scale() else 20_000
    fleet_steps = (100_000 if is_paper_scale() else 20_000) // 50

    def run() -> dict:
        stream = correlated_stream(WARMUP_OBSERVATIONS + length)
        headline = {
            # historical keys: a single cache on its own at §6.1 size
            "model_aware_2048": throughput(ModelAwareCache(CACHE_BYTES), stream),
            "round_robin_2048": throughput(RoundRobinCache(CACHE_BYTES), stream),
        }
        matrix = {}
        for neighbors in NEIGHBOR_SWEEP:
            cell_stream = correlated_stream(
                WARMUP_OBSERVATIONS + length, neighbors=neighbors
            )
            matrix[neighbors] = {
                "round_robin": throughput(
                    RoundRobinCache(CACHE_BYTES), cell_stream
                ),
            }
        return headline, matrix, fleet_throughput(fleet_steps)

    headline, matrix, fleet_rate = run_once(benchmark, run)

    lines = [
        f"BENCH cache — observe throughput at {CACHE_BYTES} bytes "
        f"({NEIGHBORS} neighbors, {length} observations)",
        *(
            f"  {policy:<20} {rate:>12,.0f} ops/sec"
            for policy, rate in sorted(headline.items())
        ),
        "  round-robin matrix (ops/sec by neighbor count)",
        f"    {'neighbors':<10} {'round-robin':>12}",
        *(
            f"    {neighbors:<10} {cell['round_robin']:>12,.0f}"
            for neighbors, cell in sorted(matrix.items())
        ),
        f"  fleet ({FLEET_LANES} caches, observe_lanes, best of "
        f"{FLEET_REPS}) {fleet_rate:>12,.0f} obs/sec",
    ]
    report(
        "BENCH_cache",
        "\n".join(lines),
        data={
            "version": 4,
            "cache_bytes": CACHE_BYTES,
            "neighbors": NEIGHBORS,
            "observations": length,
            "ops_per_sec": {k: round(v, 1) for k, v in headline.items()},
            "matrix": {
                str(neighbors): {k: round(v, 1) for k, v in cell.items()}
                for neighbors, cell in matrix.items()
            },
            "fleet": {
                "lanes": FLEET_LANES,
                "steps": fleet_steps,
                "reps": FLEET_REPS,
                "obs_per_sec": round(fleet_rate, 1),
            },
        },
    )

    # The fleet engine is the 3x-the-baseline contract: the pinned
    # pre-SoA BENCH_cache.json measured ~110k ops/sec at this cell.
    assert fleet_rate > 330_000
