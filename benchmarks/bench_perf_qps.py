"""Serving throughput: result cache on vs off.

Unlike the paper-facing benches this measures the *serving layer*: a
:class:`~repro.serving.QueryFrontEnd` fed a concurrent workload of
snapshot aggregates drawn from a fixed template pool, over a stable
interval (no event fires, so the state key never moves and the
cache stays warm after the first pass over the templates).

Two identically-seeded deployments serve the identical workload:

* **cache off** — every request plans, takes the batch's tree (flooded
  once, then reused while the network state holds) and executes;
* **cache on** — repeats of a template are replayed from the
  :class:`~repro.serving.EpochResultCache` under the pinned state key.

Answers must agree template-by-template (the differential discipline of
``tests/serving/test_differential.py``, re-asserted on the timed run),
so the QPS ratio is pure serving-path speedup.  The acceptance floor is
>= 3x sustained QPS with the cache on, as the median ratio over seven
alternating off/on pairs; the quartiles of the ratios are reported with
it.  Results land in ``results/BENCH_qps.{txt,json}``.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import is_paper_scale, run_once

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.network.topology import uniform_random_topology
from repro.query.ast import Aggregate, Query
from repro.query.spatial import random_square
from repro.serving import QueryFrontEnd

#: Acceptance floor: sustained QPS with the cache on must be a clear
#: multiple of cache-off QPS on a stable (no re-election) interval.
#: Checked on the median ratio of :data:`PAIRS` alternating pairs: one
#: best-of-3 ratio spread from 4.4x to 8.2x between runs of one tree.
REQUIRED_SPEEDUP = 3.0

#: Alternating cache-off/cache-on runs the median ratio is taken over.
PAIRS = 7

#: Distinct query templates in the pool; repeats beyond the pool size
#: are what the cache converts into replays.
TEMPLATES = 16

#: Concurrent client threads hammering the front door.
CLIENTS = 8


def _templates(rng: np.random.Generator) -> list[Query]:
    """Snapshot AVG queries over random quarter-area squares."""
    return [
        Query(
            region=random_square(0.25, rng),
            aggregate=Aggregate.AVG,
            use_snapshot=True,
        )
        for _ in range(TEMPLATES)
    ]


def _served_runtime(n_nodes: int, seed: int = 23) -> SnapshotRuntime:
    rng = np.random.default_rng(seed)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=n_nodes, n_classes=2, length=120), rng
    )
    topology = uniform_random_topology(n_nodes, 2.0, rng)
    runtime = SnapshotRuntime(
        topology, dataset, ProtocolConfig(threshold=1.0), seed=seed
    )
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


def serve_workload(
    n_nodes: int, n_queries: int, cache: bool, seed: int = 23
) -> dict:
    """QPS of ``n_queries`` requests over the template pool.

    Both variants are built from the same seeds, so the deployments,
    the elected snapshot and the workload are identical; only the cache
    differs.  Returns the per-template answers for the differential
    check alongside the measured rate.
    """
    runtime = _served_runtime(n_nodes, seed=seed)
    templates = _templates(np.random.default_rng(seed + 1))
    sink = min(runtime.alive_ids())
    requests = [templates[i % TEMPLATES] for i in range(n_queries)]
    with QueryFrontEnd(runtime, cache=cache, charge_energy=False) as frontend:
        start = time.perf_counter()
        results = frontend.run_workload(
            [(query, sink) for query in requests], clients=CLIENTS
        )
        elapsed = time.perf_counter() - start
        stats = frontend.stats()
    answers = {}
    for query, served in zip(requests, results):
        key = templates.index(query)
        value = served.result.aggregate_value
        # a stable interval serves one answer per template, cached or not
        assert answers.setdefault(key, value) == value
    return {
        "qps": len(results) / elapsed,
        "elapsed_secs": elapsed,
        "served": len(results),
        "cache_hits": stats["cache_hits"],
        "trees_built": stats["trees_built"],
        "p50_ms": stats["p50_seconds"] * 1e3,
        "p99_ms": stats["p99_seconds"] * 1e3,
        "answers": answers,
    }


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` of ``values``."""
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def summarize(cells: list[dict]) -> dict:
    """Medians over one mode's runs, with the quartiles of its QPS."""
    q1, qps, q3 = quartiles([cell["qps"] for cell in cells])
    summary = {
        "qps": round(qps, 1),
        "qps_quartiles": [round(q1, 1), round(q3, 1)],
    }
    for name in ("p50_ms", "p99_ms"):
        summary[name] = round(float(np.median([cell[name] for cell in cells])), 3)
    for name in ("cache_hits", "trees_built"):
        summary[name] = int(np.median([cell[name] for cell in cells]))
    return summary


def test_bench_serving_qps(benchmark, report):
    n_nodes = 100 if is_paper_scale() else 40
    n_queries = 2000 if is_paper_scale() else 400

    def run() -> dict:
        cells = {"cache_off": [], "cache_on": []}
        for _ in range(PAIRS):
            # alternating pairs, so machine-load drift hits both alike
            for mode, flag in (("cache_off", False), ("cache_on", True)):
                cells[mode].append(serve_workload(n_nodes, n_queries, cache=flag))
        ratios = []
        for on, off in zip(cells["cache_on"], cells["cache_off"]):
            # differential: cached answers equal cache-off answers per template
            assert on["answers"] == off["answers"]
            ratios.append(on["qps"] / off["qps"])
        return {
            "cache_on": summarize(cells["cache_on"]),
            "cache_off": summarize(cells["cache_off"]),
            "ratios": ratios,
        }

    results = run_once(benchmark, run)

    on, off = results["cache_on"], results["cache_off"]
    q1, speedup, q3 = quartiles(results["ratios"])
    lines = [
        "BENCH qps — serving front-end, result cache on vs off",
        f"  {n_queries} queries, {TEMPLATES} templates, {CLIENTS} clients, "
        f"N={n_nodes}, stable interval, medians of {PAIRS} alternating pairs",
        f"    cache off  {off['qps']:8.0f} qps   p50 {off['p50_ms']:6.2f} ms  "
        f"p99 {off['p99_ms']:6.2f} ms   trees={off['trees_built']}",
        f"    cache on   {on['qps']:8.0f} qps   p50 {on['p50_ms']:6.2f} ms  "
        f"p99 {on['p99_ms']:6.2f} ms   trees={on['trees_built']}  "
        f"hits={on['cache_hits']}",
        f"    speedup median {speedup:.2f}x, quartiles {q1:.2f}x-{q3:.2f}x "
        f"(floor {REQUIRED_SPEEDUP:.1f}x on the median)",
    ]
    report(
        "BENCH_qps",
        "\n".join(lines),
        data={
            "n_nodes": n_nodes,
            "n_queries": n_queries,
            "templates": TEMPLATES,
            "clients": CLIENTS,
            "pairs": PAIRS,
            "required_speedup": REQUIRED_SPEEDUP,
            "speedup": round(speedup, 2),
            "speedup_quartiles": [round(q1, 2), round(q3, 2)],
            "speedups": [round(ratio, 2) for ratio in results["ratios"]],
            "cache_on": on,
            "cache_off": off,
        },
    )

    assert speedup >= REQUIRED_SPEEDUP
