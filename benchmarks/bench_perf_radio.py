"""Radio hot-path microbenchmark: metrics-registry overhead (CPU time).

Like ``bench_perf_cache``, this measures the *implementation*, not the
paper.  It isolates the broadcast hot path that every §6 experiment
funnels through — one transmission, its blocked loss draw and its
single delivery event — and times it with the metrics registry absent,
disabled and enabled.  Of that path only the ``net.fanout`` histogram
is gated; the other books (energy, sent, delivered, dropped) are
essential and record in every mode.

A trial is :data:`ROUNDS` rounds, and each round times every mode for
one block of :data:`BLOCK` broadcasts, in an order rotated by one mode
per round.  On a shared 2-vCPU virtual machine the same block's CPU
time drifts by a third within a second, so modes are interleaved
block by block (about 4 ms each), and a trial sums about a quarter of
a second per mode.  The overhead of a mode is the median over
:data:`TRIALS` trials of its time divided by the same trial's baseline
time; the per-trial ratios' quartiles are reported with it, and
spanned 1-3% over four runs there.  The disabled registry must cost under
``MAX_DISABLED_OVERHEAD``; the enabled overhead is reported without a
gate.  Results land in ``results/BENCH_registry_overhead.{txt,json}``.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from conftest import is_paper_scale, run_once

from repro.energy.accounting import EnergyLedger
from repro.experiments.harness import FULL_RANGE
from repro.network.links import GlobalLoss
from repro.network.messages import Invitation
from repro.network.radio import Radio
from repro.network.stats import MessageStats
from repro.network.topology import uniform_random_topology
from repro.simulation.engine import Simulator

#: Acceptance ceiling: a disabled metrics registry may slow the
#: broadcast hot path by at most this fraction over the registry-free
#: baseline (the send path reads the gate once per transmission).
MAX_DISABLED_OVERHEAD = 0.03

#: Trials, each giving one ratio per mode.
TRIALS = 9

#: Rounds per trial: every mode runs one block per round.
ROUNDS = 180 if is_paper_scale() else 60

#: Broadcasts per block.
BLOCK = 100

MODES = ("baseline", "disabled", "enabled")


class _NullHistogram:
    """Stand-in for the fan-out histogram: the registry-free baseline.

    It is what the send path reads of ``net.fanout`` (its bucket bounds
    and the cell to book into), with no cell, as a closed gate gives."""

    uppers = ()

    def open_cell(self, key=()):
        return None


def _overhead_radio(n_nodes: int, seed: int, mode: str) -> tuple[Radio, Simulator]:
    """A lossy full-range radio in one of three observability modes.

    ``enabled``/``disabled`` use the normal construction path (the
    registry gate open or closed); ``baseline`` reproduces the
    pre-registry hot path — plain-counter accounting and a fan-out
    histogram that books nothing.  No mode keeps trace records, as in
    a runtime's default.
    """
    topology = uniform_random_topology(
        n_nodes, FULL_RANGE, np.random.default_rng(seed)
    )
    simulator = Simulator(
        seed=seed, keep_trace_records=False, metrics_enabled=(mode == "enabled")
    )
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


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def test_bench_registry_overhead(benchmark, report):
    """Disabled-registry overhead on the broadcast hot path (< 3%)."""
    n_nodes = 200
    message = Invitation(sender=0, value=1.0, epoch=0)

    def run() -> dict:
        radios = {mode: _overhead_radio(n_nodes, seed=17, mode=mode) for mode in MODES}
        secs = {mode: [] for mode in MODES}
        for trial in range(TRIALS):
            spent = dict.fromkeys(MODES, 0.0)
            for round_ in range(ROUNDS):
                gc.collect()
                gc.disable()
                try:
                    for k in range(len(MODES)):
                        mode = MODES[(trial + round_ + k) % len(MODES)]
                        radio, simulator = radios[mode]
                        start = time.process_time()
                        for _ in range(BLOCK):
                            radio.broadcast(message)
                            simulator.run()
                        spent[mode] += time.process_time() - start
                finally:
                    gc.enable()
            for mode in MODES:
                secs[mode].append(spent[mode])
        ratios = {
            mode: [t / b - 1.0 for t, b in zip(secs[mode], secs["baseline"])]
            for mode in ("disabled", "enabled")
        }
        return {"secs": secs, "ratios": ratios}

    results = run_once(benchmark, run)

    secs, ratios = results["secs"], results["ratios"]
    overhead = {mode: statistics.median(r) for mode, r in ratios.items()}
    spread = {mode: _quartiles(r) for mode, r in ratios.items()}
    median_s = {mode: statistics.median(s) for mode, s in secs.items()}
    lines = [
        "BENCH registry overhead — broadcast hot path "
        f"(N={n_nodes}, P_loss=0.3, {TRIALS} trials of {ROUNDS} rounds of "
        f"{BLOCK} broadcasts per mode, CPU time)",
        f"  baseline (no registry)  {median_s['baseline']:8.4f}s median trial",
    ]
    for mode, gate in (("disabled", "gate < 3%"), ("enabled", "no gate")):
        q1, q3 = spread[mode]
        lines.append(
            f"  registry {mode:<9}      {median_s[mode]:8.4f}s  "
            f"median ratio {overhead[mode]:+.2%} (quartiles {q1:+.2%} .. {q3:+.2%}; {gate})"
        )
    report(
        "BENCH_registry_overhead",
        "\n".join(lines),
        data={
            "n_nodes": n_nodes,
            "block": BLOCK,
            "rounds": ROUNDS,
            "trials": TRIALS,
            "clock": "process_time",
            "secs": {mode: [round(t, 5) for t in s] for mode, s in secs.items()},
            "disabled_overhead": round(overhead["disabled"], 4),
            "disabled_quartiles": [round(q, 4) for q in spread["disabled"]],
            "enabled_overhead": round(overhead["enabled"], 4),
            "enabled_quartiles": [round(q, 4) for q in spread["enabled"]],
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        },
    )

    assert overhead["disabled"] < MAX_DISABLED_OVERHEAD
