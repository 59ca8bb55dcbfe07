"""Differential proof that batched rounds match per-delivery application.

``SnapshotRuntime`` routes every overheard measurement observation
through the ``BatchedObservationRouter`` and — for the model-aware
policy — applies them via the shared ``ModelAwareCacheFleet``.  These
cases pin the equivalence contract against the test-side
``OracleRuntime`` (``tests/persist/conftest.py``), which builds no fleet
and flushes its router after every enqueue: the *entire observable
outcome* (whole-sim digest, every component digest, trace records,
message counters, event count, report rows, per-round digests) is equal
across both cache policies × lossless/lossy, through a randomized fault
schedule, and through a checkpoint frozen mid-burst with observations
still pending in the batch.  The oracle's model-aware caches run the
scalar ``CacheLine`` engine, so the model-aware cases double as the
whole-run fleet-vs-scalar proof.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.faults import chaos
from repro.faults.chaos import ChaosConfig, ChaosRun
from repro.persist import load_checkpoint, save_checkpoint
from repro.core.runtime import SnapshotRuntime

from tests.persist.conftest import (
    HORIZON,
    SCRIPT,
    OracleRuntime,
    assert_outcomes_equal,
    build_runtime,
    outcome,
)


def _run(seed, policy, loss, batched):
    runtime = build_runtime(seed, policy, loss, oracle=not batched)
    fleet = runtime.observation_router.fleet
    if batched and policy == "model-aware":
        # The whole deployment shares one fleet, one lane per node.
        assert fleet is not None and fleet.F == len(runtime.nodes)
    else:
        assert fleet is None
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
    # The oracle leaves every cache unbound, so this is also the
    # whole-run proof that the fleet engine matches the scalar one.
    batched = _run(seed, "model-aware", loss, batched=True)
    assert_outcomes_equal(batched, _run(seed, "model-aware", loss, batched=False))
    assert batched["round_digests"], "script must complete maintenance rounds"


@pytest.mark.bench
@pytest.mark.parametrize("loss", [0.0, 0.3], ids=["lossless", "lossy"])
def test_extended_batched_matches_scalar_round_robin(loss):
    # No fleet for round-robin: the router applies samples scalarly at
    # the same barrier — ordering, effects and digests must still match.
    assert_outcomes_equal(
        _run(4, "round-robin", loss, batched=True),
        _run(4, "round-robin", loss, batched=False),
    )


def _chaos_outcome(monkeypatch, batched):
    config = ChaosConfig(
        seed=13,
        n_nodes=8,
        n_faults=5,
        loss_burst=0.15,
        keep_trace_records=True,
    )
    with monkeypatch.context() as patch:
        if not batched:
            patch.setattr(chaos, "SnapshotRuntime", OracleRuntime)
        run = ChaosRun(config)
        run.start()
        result = run.finish()
    runtime = result.runtime
    digest = runtime.state_digest()
    return {
        "runtime": runtime,
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


@pytest.mark.bench
def test_extended_batched_chaos_schedule_matches_scalar(monkeypatch):
    """Crashes, revivals, partitions and a loss burst: still bit-identical."""
    batched = _chaos_outcome(monkeypatch, True)
    scalar = _chaos_outcome(monkeypatch, False)
    assert isinstance(scalar.pop("runtime"), OracleRuntime)
    assert not isinstance(batched.pop("runtime"), OracleRuntime)
    assert batched == scalar
    assert batched["crashes"] > 0  # non-vacuity: faults really fired


def test_batched_checkpoint_mid_burst_resumes(tmp_path):
    """Freeze with observations still pending in the batch; the restored
    run flushes them exactly where the uninterrupted run would."""
    seed = 6
    reference = _run(seed, "model-aware", 0.0, batched=False)

    runtime = build_runtime(seed, "model-aware", 0.0)
    # Replay train()'s exact schedule, but drive it one event at a time
    # so we can stop after the first tick's delivery wave, before the
    # barrier flushes its samples (train() itself runs the whole window;
    # see SnapshotRuntime.train).
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


def _read_soon_after_burst(batched):
    """Evaluate an election 0.049 time units after an un-synced burst.

    Training ticks at 0 and 1 give every node its second sample of each
    neighbor in the burst delivered at 1.001; the election's evaluate
    phase at 1.05 then reads those caches through ``can_represent``,
    which nothing syncs first.  Only the barrier stands between the two:
    applied any later, the burst's samples miss the read (one sample
    is not yet a model), and the candidate lists come out different.
    """
    runtime = build_runtime(9, "model-aware", 0.0, oracle=not batched)
    end = runtime._schedule_train(start=0.0, duration=2.0)
    runtime.coordinator.start_round(at=0.95)
    runtime.simulator.run_until(end)
    lists = {
        node_id: dict(node._heard_list_lengths)
        for node_id, node in runtime.nodes.items()
    }
    runtime.advance_to(0.95 + runtime.coordinator.settle_delay)
    runtime.start_maintenance()
    runtime.advance_to(HORIZON)
    return lists, outcome(runtime)


def test_batched_barrier_flushes_before_a_read_soon_after_the_burst():
    lists, batched = _read_soon_after_burst(True)
    oracle_lists, scalar = _read_soon_after_burst(False)
    assert lists == oracle_lists
    assert_outcomes_equal(batched, scalar)
    # Non-vacuity: the read right after the burst found usable models.
    assert any(length for heard in lists.values() for length in heard.values())

