"""Differential proof that batched rounds match the scalar golden path.

``SnapshotRuntime(batched_rounds=True)`` routes every overheard
measurement observation through the ``BatchedObservationRouter`` and —
for the model-aware policy — applies them via the shared
``ModelAwareCacheFleet``.  These cases pin the equivalence contract:
the *entire observable outcome* (whole-sim digest, every component
digest, trace records, message counters, event count, report rows,
per-round digests) is equal to the scalar per-delivery path across
both cache policies × lossless/lossy, through a randomized fault
schedule, and through a checkpoint frozen mid-burst with observations
still pending in the batch.  The unbatched runtime builds no fleet, so
its model-aware caches run the scalar ``CacheLine`` engine: the
model-aware cases double as the whole-run fleet-vs-scalar proof.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.config import ProtocolConfig
from repro.faults.chaos import ChaosConfig, ChaosRun
from repro.persist import load_checkpoint, save_checkpoint
from repro.core.runtime import SnapshotRuntime

from tests.persist.conftest import (
    SCRIPT,
    assert_outcomes_equal,
    build_runtime,
    outcome,
)


def _run(seed, policy, loss, batched):
    runtime = build_runtime(seed, policy, loss, batched_rounds=batched)
    if batched:
        assert runtime.observation_router is not None
        if policy == "model-aware":
            # The whole deployment shares one fleet, one lane per node.
            fleet = runtime.observation_router.fleet
            assert fleet is not None and fleet.F == len(runtime.nodes)
        else:
            assert runtime.observation_router.fleet is None
    else:
        assert runtime.observation_router is None
    for step in SCRIPT:
        step(runtime)
    return outcome(runtime)


@pytest.mark.parametrize(
    "seed,loss",
    [
        pytest.param(3, 0.0, id="lossless"),
        pytest.param(3, 0.3, id="lossy"),
        pytest.param(2005, 0.0, id="seed2005-lossless"),
        pytest.param(1813, 0.3, id="seed1813-lossy"),
    ],
)
def test_batched_matches_scalar_model_aware(seed, loss):
    # Unbatched runs leave every cache unbound, so this is also the
    # whole-run proof that the fleet engine matches the scalar one.
    batched = _run(seed, "model-aware", loss, batched=True)
    assert_outcomes_equal(batched, _run(seed, "model-aware", loss, batched=False))
    assert batched["round_digests"], "script must complete maintenance rounds"


@pytest.mark.parametrize("loss", [0.0, 0.3], ids=["lossless", "lossy"])
def test_extended_batched_matches_scalar_round_robin(loss):
    # No fleet for round-robin: the router applies samples scalarly at
    # the same barrier — ordering, effects and digests must still match.
    assert_outcomes_equal(
        _run(4, "round-robin", loss, batched=True),
        _run(4, "round-robin", loss, batched=False),
    )


def _chaos_outcome(batched):
    config = ChaosConfig(
        seed=13,
        n_nodes=8,
        n_faults=5,
        loss_burst=0.15,
        keep_trace_records=True,
        batched_rounds=batched,
    )
    run = ChaosRun(config)
    run.start()
    result = run.finish()
    runtime = result.runtime
    digest = runtime.state_digest()
    return {
        "ok": result.ok,
        "crashes": result.crashes,
        "revivals": result.revivals,
        "reelections": result.reelections,
        "final_coverage": result.final_coverage,
        "whole": digest.whole,
        "components": digest.components,
        "trace_records": list(runtime.simulator.trace.records),
        "events": runtime.simulator.events_processed,
        "sent": dict(runtime.stats.sent),
        "dropped": dict(runtime.stats.dropped),
    }


def test_extended_batched_chaos_schedule_matches_scalar():
    """Crashes, revivals, partitions and a loss burst: still bit-identical."""
    batched = _chaos_outcome(True)
    scalar = _chaos_outcome(False)
    assert batched == scalar
    assert batched["crashes"] > 0  # non-vacuity: faults really fired


def test_batched_checkpoint_mid_burst_resumes(tmp_path):
    """Freeze with observations still pending in the batch; the restored
    run flushes them exactly where the uninterrupted run would."""
    seed = 6
    reference = _run(seed, "model-aware", 0.0, batched=True)

    runtime = build_runtime(seed, "model-aware", 0.0, batched_rounds=True)
    # Replay train()'s exact schedule, but drive it one event at a time
    # so we can stop mid-delivery-burst (train() itself runs the whole
    # window; see SnapshotRuntime.train).
    simulator = runtime.simulator
    t0 = simulator.now
    end = t0 + 6.0
    saved_snoop = {
        node_id: node.snoop_probability for node_id, node in runtime.nodes.items()
    }
    simulator.schedule_at(
        t0, partial(runtime._set_snoop, None), label="train:snoop-on"
    )
    tick = t0
    while tick < end:
        simulator.schedule_at(tick, runtime._train_broadcast, label="train:broadcast")
        tick += 1.0
    simulator.schedule_at(
        end, partial(runtime._set_snoop, saved_snoop), label="train:snoop-restore"
    )
    while not runtime.observation_router.pending:
        assert simulator.run_until(end, max_events=1) == 1
    path = tmp_path / "mid-burst.ckpt"
    saved = save_checkpoint(runtime, path)
    # The un-flushed batch is part of the frozen state.
    assert "observations" in saved.components
    del runtime

    resumed = load_checkpoint(path)
    assert isinstance(resumed, SnapshotRuntime)
    assert resumed.observation_router.pending
    assert resumed.state_digest().whole == saved.whole
    resumed.simulator.run_until(end)
    for step in SCRIPT[1:]:
        step(resumed)
    assert_outcomes_equal(outcome(resumed), reference)


def test_batched_respects_observe_node_label_knob():
    """With the cardinality knob off, both paths key the counter by
    action alone — and still agree cell-for-cell."""
    import numpy as np

    from repro.data.random_walk import RandomWalkConfig, generate_random_walk
    from repro.network.topology import uniform_random_topology

    cells = {}
    for batched in (False, True):
        rng = np.random.default_rng(2)
        dataset, _ = generate_random_walk(
            RandomWalkConfig(n_nodes=10, n_classes=2, length=100), rng
        )
        topology = uniform_random_topology(10, 1.5, rng)
        runtime = SnapshotRuntime(
            topology,
            dataset,
            ProtocolConfig(observe_node_label=False),
            seed=2,
            batched_rounds=batched,
        )
        runtime.train(duration=5.0)
        counter = runtime.metrics.counter("cache.observe", labels=("action",))
        cells[batched] = dict(counter.cells)
    assert cells[True] == cells[False]
    assert cells[True], "training must have produced observations"
    for key in cells[True]:
        assert isinstance(key, str)  # action-only keys, no node label
