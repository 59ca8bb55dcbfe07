"""Radio hot-path microbenchmark: metrics-registry overhead (wall time).

Like ``bench_perf_cache``, this measures the *implementation*, not the
paper.  It isolates the broadcast hot path that every §6 experiment
funnels through — one transmission, its blocked loss draw and its
single delivery event — and times it with the metrics registry absent,
disabled and enabled.  The disabled registry must cost under
``MAX_DISABLED_OVERHEAD``; results land in
``results/BENCH_registry_overhead.{txt,json}``.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import is_paper_scale, run_once

from repro.experiments.harness import FULL_RANGE
from repro.network.links import GlobalLoss
from repro.network.messages import Invitation
from repro.network.radio import Radio
from repro.network.topology import uniform_random_topology
from repro.simulation.engine import Simulator

#: Acceptance ceiling: a disabled metrics registry may slow the
#: broadcast hot path by at most this fraction over the registry-free
#: baseline (the gated fast path is two attribute loads and a branch).
MAX_DISABLED_OVERHEAD = 0.03


class _NullHistogram:
    """Stand-in for the fan-out histogram: the registry-free baseline."""

    def observe(self, value, key=()):  # pragma: no cover - trivially empty
        pass


def _overhead_radio(n_nodes: int, seed: int, mode: str) -> tuple[Radio, Simulator]:
    """A lossy full-range radio in one of three observability modes.

    ``enabled``/``disabled`` use the normal construction path (the
    registry gate open or closed); ``baseline`` reproduces the
    pre-registry hot path — plain-counter accounting and no fan-out
    histogram call doing anything.
    """
    from repro.energy.accounting import EnergyLedger
    from repro.network.stats import MessageStats

    topology = uniform_random_topology(
        n_nodes, FULL_RANGE, np.random.default_rng(seed)
    )
    simulator = Simulator(seed=seed, metrics_enabled=(mode == "enabled"))
    if mode == "baseline":
        radio = Radio(
            simulator,
            topology,
            loss_model=GlobalLoss(0.3),
            stats=MessageStats(),
            ledger=EnergyLedger(),
        )
        radio._fanout = _NullHistogram()
    else:
        radio = Radio(simulator, topology, loss_model=GlobalLoss(0.3))
    radio.populate()
    return radio, simulator


def test_bench_registry_overhead(benchmark, report):
    """Disabled-registry overhead on the broadcast hot path (< 3%).

    The three modes run interleaved (baseline, disabled, enabled per
    trial) and each takes its best-of-N time, so drift in machine load
    hits all of them alike.
    """
    n_nodes = 200
    n_broadcasts = 2_000 if is_paper_scale() else 600
    trials = 5
    message = Invitation(sender=0, value=1.0, epoch=0)

    def run() -> dict:
        radios = {
            mode: _overhead_radio(n_nodes, seed=17, mode=mode)
            for mode in ("baseline", "disabled", "enabled")
        }
        best = {mode: float("inf") for mode in radios}
        for _ in range(trials):
            for mode, (radio, simulator) in radios.items():
                start = time.perf_counter()
                for _ in range(n_broadcasts):
                    radio.broadcast(message)
                    simulator.run()
                best[mode] = min(best[mode], time.perf_counter() - start)
        return {
            "secs": best,
            "disabled_overhead": best["disabled"] / best["baseline"] - 1.0,
            "enabled_overhead": best["enabled"] / best["baseline"] - 1.0,
        }

    results = run_once(benchmark, run)

    secs = results["secs"]
    lines = [
        "BENCH registry overhead — broadcast hot path "
        f"(N={n_nodes}, P_loss=0.3, {n_broadcasts} broadcasts, best of {trials})",
        f"  baseline (no registry)  {secs['baseline']:8.4f}s",
        f"  registry disabled       {secs['disabled']:8.4f}s  "
        f"({results['disabled_overhead']:+.2%})",
        f"  registry enabled        {secs['enabled']:8.4f}s  "
        f"({results['enabled_overhead']:+.2%})",
    ]
    report(
        "BENCH_registry_overhead",
        "\n".join(lines),
        data={
            "n_nodes": n_nodes,
            "n_broadcasts": n_broadcasts,
            "best_of": trials,
            "secs": {k: round(v, 5) for k, v in secs.items()},
            "disabled_overhead": round(results["disabled_overhead"], 4),
            "enabled_overhead": round(results["enabled_overhead"], 4),
        },
    )

    assert results["disabled_overhead"] < MAX_DISABLED_OVERHEAD
