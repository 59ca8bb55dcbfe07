"""Differential resume-equivalence suite.

Checkpoint a scripted run at several cut points, restore from disk, run
the remainder, and assert the resumed trajectory is bit-identical to an
uninterrupted run of the same script: same trace records event for
event, same per-round and whole-sim digests, same message counters,
same RunReport rows.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import SnapshotRuntime
from repro.network.radio import DELIVERY_PRIORITY
from repro.persist import load_checkpoint, save_checkpoint

from tests.persist.conftest import (
    HORIZON,
    SCRIPT,
    assert_outcomes_equal,
    build_runtime,
    outcome,
    run_reference,
)


def run_with_cut(seed, policy, loss, cut, tmp_path) -> dict:
    """Run ``SCRIPT[:cut]``, freeze through disk, restore, finish."""
    runtime = build_runtime(seed, policy, loss)
    for step in SCRIPT[:cut]:
        step(runtime)
    path = tmp_path / f"cut{cut}.ckpt"
    saved = save_checkpoint(runtime, path)
    del runtime
    resumed = load_checkpoint(path)
    # The restored state digests identically to what was frozen.
    assert resumed.state_digest().whole == saved.whole
    for step in SCRIPT[cut:]:
        step(resumed)
    return outcome(resumed)


@pytest.mark.parametrize("policy", ["model-aware", "round-robin"])
@pytest.mark.parametrize("loss", [0.0, 0.25], ids=["lossless", "lossy"])
def test_resume_is_bit_identical(policy, loss, tmp_path):
    seed = 5
    reference = run_reference(seed, policy, loss)
    for cut in (2, 4, 7):
        resumed = run_with_cut(seed, policy, loss, cut, tmp_path)
        assert_outcomes_equal(resumed, reference)
    # Non-vacuity: the script really completed maintenance rounds.
    assert reference["round_digests"], "script must complete maintenance rounds"


def test_checkpoint_at_arbitrary_event_index(tmp_path):
    """Cut *inside* an advance, at a raw event index, not a step seam."""
    seed, policy, loss = 9, "model-aware", 0.2
    reference = run_reference(seed, policy, loss)

    runtime = build_runtime(seed, policy, loss)
    for step in SCRIPT[:5]:
        step(runtime)
    # Partially drain the advance-to-80 window: stop after 13 events,
    # mid-flight, with deliveries and timers still queued.
    fired = runtime.simulator.run_until(80.0, max_events=13)
    assert fired == 13
    assert runtime.simulator.now < 80.0
    path = tmp_path / "mid-advance.ckpt"
    runtime.checkpoint(path)
    del runtime

    resumed = SnapshotRuntime.restore(path)
    resumed.simulator.run_until(80.0)
    for step in SCRIPT[6:]:
        step(resumed)
    assert_outcomes_equal(outcome(resumed), reference)


def _wave_pending(runtime) -> bool:
    """A training tick's reports are sent and their wave not delivered."""
    head = runtime.simulator.queue.peek()
    return head is not None and head[1] == DELIVERY_PRIORITY


def _reports_delivered(runtime) -> int:
    return sum(
        count
        for (_, kind), count in runtime.stats.delivered.cells.items()
        if kind == "DataReport"
    )


def _wave_delivered(runtime) -> bool:
    """A training tick's wave is delivered (its samples with it)."""
    return _reports_delivered(runtime) > 0


@pytest.mark.parametrize(
    "frozen", [_wave_pending, _wave_delivered], ids=["before-wave", "after-wave"]
)
@pytest.mark.parametrize("loss", [0.0, 0.25], ids=["lossless", "lossy"])
def test_checkpoint_inside_a_training_tick(frozen, loss, tmp_path):
    """Freeze between a training tick's sends and its one delivery
    event, or right after that event, whose snooped samples are
    already in the caches: nothing is left pending across events."""
    seed, policy = 4, "model-aware"
    reference = run_reference(seed, policy, loss)

    runtime = build_runtime(seed, policy, loss)
    simulator = runtime.simulator
    # train()'s own schedule, stepped one event at a time.
    end = runtime._schedule_train(duration=6.0)
    while not frozen(runtime):
        assert simulator.run_until(end, max_events=1) == 1
    assert runtime.stats.sent_of_kind("DataReport") > 0
    # Every report delivered in training is one snooped sample, applied
    # before its delivery event returned.
    observed = runtime.metrics.metric("cache.observe").total()
    assert observed == _reports_delivered(runtime)
    assert (observed > 0) == (frozen is _wave_delivered)
    path = tmp_path / "mid-tick.ckpt"
    saved = save_checkpoint(runtime, path)
    del runtime

    resumed = load_checkpoint(path)
    assert resumed.state_digest().whole == saved.whole
    assert frozen(resumed)
    resumed.simulator.run_until(end)
    for step in SCRIPT[1:]:
        step(resumed)
    assert_outcomes_equal(outcome(resumed), reference)


def test_double_freeze_resume_chain(tmp_path):
    """Freeze, resume, freeze again, resume again — still identical."""
    seed, policy, loss = 7, "round-robin", 0.25
    reference = run_reference(seed, policy, loss)

    runtime = build_runtime(seed, policy, loss)
    for step in SCRIPT[:3]:
        step(runtime)
    first = tmp_path / "first.ckpt"
    save_checkpoint(runtime, first)
    del runtime

    middle = load_checkpoint(first)
    for step in SCRIPT[3:6]:
        step(middle)
    second = tmp_path / "second.ckpt"
    save_checkpoint(middle, second)
    del middle

    final = load_checkpoint(second)
    for step in SCRIPT[6:]:
        step(final)
    assert_outcomes_equal(outcome(final), reference)


def test_checkpoint_file_is_inert(tmp_path):
    """Restoring twice from one file gives two independent, equal runs."""
    runtime = build_runtime(3, "model-aware", 0.0)
    for step in SCRIPT[:4]:
        step(runtime)
    path = tmp_path / "twice.ckpt"
    save_checkpoint(runtime, path)
    del runtime

    first = load_checkpoint(path)
    for step in SCRIPT[4:]:
        step(first)
    first_outcome = outcome(first)

    second = load_checkpoint(path)
    for step in SCRIPT[4:]:
        step(second)
    assert_outcomes_equal(outcome(second), first_outcome)
    assert first_outcome["now"] == HORIZON


@pytest.mark.bench
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("policy", ["model-aware", "round-robin"])
@pytest.mark.parametrize("loss", [0.0, 0.25], ids=["lossless", "lossy"])
def test_extended_full_cut_matrix(seed, policy, loss, tmp_path):
    """Every step seam of the script is a valid freeze point."""
    reference = run_reference(seed, policy, loss)
    for cut in range(1, len(SCRIPT)):
        resumed = run_with_cut(seed, policy, loss, cut, tmp_path)
        assert_outcomes_equal(resumed, reference)
