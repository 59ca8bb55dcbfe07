"""Fleet slicing overhead: sliced operation vs one uninterrupted advance.

The fleet layer (``repro.fleet``) drives a deployment in bounded
sim-time slices so it can be checkpointed, observed and reconfigured
while running.  ``tests/fleet`` proves slicing is *trajectory*-neutral;
this benchmark pins down that it is (nearly) *wall-clock*-neutral too:
the same maintenance horizon driven through ``FleetRunner.run`` —
slice bookkeeping and SLO evaluation on, checkpointing/streaming/probes
off, so the timed cell isolates the slicing machinery itself — must
stay within ``MAX_OVERHEAD`` of a single ``advance_to`` at N=400.

A trajectory witness (event count, cached pairs, final clock) re-asserts
equivalence on every timed run.  Results land in
``results/BENCH_fleet.{txt,json}``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import is_paper_scale, run_once

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.experiments.harness import make_cache_factory
from repro.fleet import FleetRunner, FleetState
from repro.network.topology import uniform_random_topology

#: Acceptance ceiling: sliced wall time over uninterrupted wall time.
MAX_OVERHEAD = 1.10

#: Maintenance horizon (sim time) and how finely the fleet slices it.
PERIOD = 10.0
HORIZON = 8 * PERIOD
N_SLICES = 16

DEGREE = 12.0
CACHE_BYTES = 2048


def _build(n_nodes: int, seed: int = 11) -> SnapshotRuntime:
    rng = np.random.default_rng(seed)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=n_nodes, n_classes=4, length=64), rng
    )
    radius = math.sqrt(DEGREE / (math.pi * n_nodes))
    topology = uniform_random_topology(
        n_nodes, radius, np.random.default_rng(seed + 1)
    )
    runtime = SnapshotRuntime(
        topology,
        dataset,
        ProtocolConfig(threshold=1.0, heartbeat_period=PERIOD, rule4_retry=0.1),
        seed=seed,
        cache_factory=make_cache_factory("model-aware", CACHE_BYTES),
        metrics_enabled=False,
    )
    runtime.train(duration=8.0)
    runtime.run_election()
    runtime.start_maintenance()
    return runtime


def _checksum(runtime: SnapshotRuntime) -> tuple:
    return (
        runtime.simulator.events_processed,
        sum(node.store.policy.total_pairs for node in runtime.nodes.values()),
        runtime.simulator.now,
        runtime.current_epoch,
    )


def _uninterrupted(n_nodes: int) -> tuple[float, tuple]:
    runtime = _build(n_nodes)
    end = runtime.now + HORIZON
    start = time.perf_counter()
    runtime.advance_to(end)
    return time.perf_counter() - start, _checksum(runtime)


def _sliced(n_nodes: int) -> tuple[float, tuple]:
    runtime = _build(n_nodes)
    state = FleetState(runtime, probe_area=None)  # probes would add queries
    runner = FleetRunner(state, HORIZON / N_SLICES)
    start = time.perf_counter()
    runner.run(N_SLICES)
    return time.perf_counter() - start, _checksum(runtime)


def test_bench_fleet_slicing_overhead(benchmark, report):
    sizes = [400, 2000] if is_paper_scale() else [400]
    trials = 5

    def run() -> dict:
        cells = {}
        for n in sizes:
            # Interleave best-of-N so machine-load drift hits both
            # modes alike.
            best = {"single": float("inf"), "sliced": float("inf")}
            checks = {}
            for _ in range(trials):
                for mode, fn in (("single", _uninterrupted), ("sliced", _sliced)):
                    secs, check = fn(n)
                    best[mode] = min(best[mode], secs)
                    checks[mode] = check
            # Slicing is trajectory-neutral; the witness must agree.
            assert checks["single"] == checks["sliced"]
            cells[n] = {
                "single_secs": best["single"],
                "sliced_secs": best["sliced"],
                "overhead": best["sliced"] / best["single"],
                "events": checks["sliced"][0],
                "slices": N_SLICES,
            }
        return {"cells": cells}

    results = run_once(benchmark, run)

    lines = [
        "BENCH fleet — sliced operation vs one uninterrupted advance",
        f"  {HORIZON:.0f} time units of maintenance in {N_SLICES} slices "
        f"(degree~{DEGREE:.0f}, best of {trials})",
    ]
    for n, cell in results["cells"].items():
        lines.append(
            f"    N={n:<5} single {cell['single_secs']:7.3f}s   "
            f"sliced {cell['sliced_secs']:7.3f}s   "
            f"overhead {cell['overhead']:5.3f}x   "
            f"events={cell['events']}"
        )
    report("BENCH_fleet", "\n".join(lines), data=results)

    overhead_400 = results["cells"][400]["overhead"]
    assert overhead_400 <= MAX_OVERHEAD, (
        f"fleet slicing cost {overhead_400:.3f}x the uninterrupted run at "
        f"N=400 (ceiling {MAX_OVERHEAD:.2f}x)"
    )
