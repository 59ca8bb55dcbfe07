"""Unit coverage for the fleet machinery itself.

The differential suite proves trajectory-neutrality; this file pins the
operational contracts — ring rotation, stream rotation, reconfiguration
validation, the background thread lifecycle and the serving hand-off.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.fleet import FleetRunner, apply_change
from repro.obs.stream import JsonlRing
from repro.persist.ring import CheckpointRing

from tests.fleet.conftest import SLICE, make_state


# ----------------------------------------------------------------------
# JsonlRing
# ----------------------------------------------------------------------


def test_jsonl_ring_rotates_and_prunes(tmp_path):
    ring = JsonlRing(tmp_path, max_records=3, keep_segments=2)
    for i in range(10):
        ring.append({"record": "x", "i": i})
    ring.close()
    assert ring.records_written == 10
    paths = ring.segment_paths()
    assert len(paths) <= 2, "prune kept more than keep_segments"
    # The newest records survive; the oldest were rotated away.
    kept = [record["i"] for record in ring.iter_records()]
    assert kept == sorted(kept)
    assert kept[-1] == 9
    assert 0 not in kept


def test_jsonl_ring_resumes_past_existing_segments(tmp_path):
    first = JsonlRing(tmp_path, max_records=100)
    first.append({"record": "a"})
    first.close()
    second = JsonlRing(tmp_path, max_records=100)
    second.append({"record": "b"})
    second.close()
    paths = [path.name for path in second.segment_paths()]
    assert len(paths) == 2, "resume overwrote or appended into the old segment"
    records = second.read_all()
    assert [r["record"] for r in records] == ["a", "b"]


def test_jsonl_ring_read_filters_and_tolerates_torn_tail(tmp_path):
    ring = JsonlRing(tmp_path, max_records=100)
    ring.append({"record": "slice", "i": 0})
    ring.append({"record": "metrics", "i": 1})
    ring.close()
    # A writer crash mid-line: readers must skip the torn tail.
    with open(ring.segment_paths()[0], "a", encoding="utf-8") as handle:
        handle.write('{"record": "sli')
    assert [r["i"] for r in ring.read_all(kind="slice")] == [0]
    assert len(ring.read_all()) == 2


def test_jsonl_ring_validates_parameters(tmp_path):
    with pytest.raises(ValueError):
        JsonlRing(tmp_path, max_records=0)
    with pytest.raises(ValueError):
        JsonlRing(tmp_path, keep_segments=0)


# ----------------------------------------------------------------------
# CheckpointRing
# ----------------------------------------------------------------------


def test_checkpoint_ring_rotates_and_restores(tmp_path):
    ring = CheckpointRing(tmp_path, keep=3)
    for i in range(7):
        ring.save({"payload": i}, meta={"i": i})
    assert len(ring.paths()) == 3, "ring kept more than keep checkpoints"
    assert ring.load_latest(verify=True) == {"payload": 6}
    header = ring.header()
    assert header["meta"]["i"] == 6
    assert header["meta"]["ring_index"] == 6
    # A fresh handle on the same directory resumes past the old indices.
    resumed = CheckpointRing(tmp_path, keep=3)
    path = resumed.save({"payload": 7})
    assert path == sorted(resumed.paths())[-1]
    assert resumed.load_latest() == {"payload": 7}


def test_checkpoint_ring_empty(tmp_path):
    ring = CheckpointRing(tmp_path)
    assert ring.paths() == []
    assert ring.latest() is None


# ----------------------------------------------------------------------
# apply_change validation
# ----------------------------------------------------------------------


def test_apply_change_rejects_unknown_keys():
    state = make_state(31, chaos=False)
    with pytest.raises(ValueError, match="unknown reconfiguration keys"):
        apply_change(state, {"heartbeat_period": 5.0})


def test_apply_change_rejects_loss_and_loss_model_together():
    state = make_state(31, chaos=False)
    from repro.network.links import GlobalLoss

    with pytest.raises(ValueError, match="not both"):
        apply_change(state, {"loss": 0.1, "loss_model": GlobalLoss(0.1)})


def test_apply_change_rejects_cache_bytes_alone():
    state = make_state(31, chaos=False)
    with pytest.raises(ValueError, match="requires 'cache_policy'"):
        apply_change(state, {"cache_bytes": 512})


def test_cache_swap_requires_quiescent_router():
    state = make_state(31, chaos=False)
    runtime = state.runtime
    loss_before = runtime.radio.loss_model
    router = runtime.observation_router
    assert router is not None and not router.pending
    router.pending.append(object())  # mid-round, not a slice boundary
    try:
        with pytest.raises(RuntimeError, match="quiescent"):
            apply_change(
                state,
                {"loss": 0.4, "rotation_probability": 0.7,
                 "cache_policy": "round-robin"},
            )
    finally:
        router.pending.clear()
    # Rejected before the first mutation: the other fields did not land.
    assert runtime.radio.loss_model is loss_before
    assert runtime.config.rotation_probability == 0.1


@pytest.mark.parametrize(
    "bad",
    [
        {"cache_policy": "bogus"},
        {"cache_policy": "model-aware-scalar"},
        {"cache_policy": "model-aware", "cache_bytes": 4},
        {"snoop_probability": 2.0},
    ],
    ids=["unknown-policy", "retired-policy", "tiny-budget", "bad-knob"],
)
def test_rejected_change_leaves_the_runtime_untouched(bad):
    """A change applies whole or not at all: one bad field rejects it
    before the loss model, protocol knobs or caches are touched."""
    state = make_state(31, chaos=False)
    runtime = state.runtime
    loss_before = runtime.radio.loss_model
    config_before = runtime.config
    policies_before = [runtime.nodes[n].store.policy for n in sorted(runtime.nodes)]
    fleet_before = runtime.observation_router.fleet
    change = {"loss": 0.4, "rotation_probability": 0.7, **bad}
    with pytest.raises(ValueError):
        apply_change(state, change)
    assert runtime.radio.loss_model is loss_before
    assert runtime.config is config_before
    assert runtime.config.rotation_probability == 0.1
    assert all(node.config is config_before for node in runtime.nodes.values())
    assert runtime.coordinator.config is config_before
    assert runtime.maintenance.config is config_before
    assert [
        runtime.nodes[n].store.policy for n in sorted(runtime.nodes)
    ] == policies_before
    assert runtime.observation_router.fleet is fleet_before


def test_apply_change_swaps_loss_under_a_fault_overlay():
    """With an injector armed, the overlay stays in place and only its
    base is replaced — bursts/partitions keep composing."""
    from repro.faults import FaultInjector
    from repro.faults.injector import _FaultOverlayLoss
    from repro.network.links import GlobalLoss

    state = make_state(31)  # chaos=True arms the overlay
    radio = state.runtime.radio
    assert isinstance(radio.loss_model, _FaultOverlayLoss)
    overlay = radio.loss_model
    apply_change(state, {"loss": 0.25})
    assert radio.loss_model is overlay, "overlay was clobbered"
    assert isinstance(overlay.base, GlobalLoss)


# ----------------------------------------------------------------------
# FleetRunner lifecycle
# ----------------------------------------------------------------------


def test_runner_validates_parameters():
    state = make_state(33, chaos=False)
    with pytest.raises(ValueError):
        FleetRunner(state, 0.0)
    with pytest.raises(ValueError):
        FleetRunner(state, SLICE, checkpoint_every=-1)


def test_run_slice_record_and_status_shape(tmp_path):
    state = make_state(33, chaos=False)
    runner = FleetRunner(state, SLICE, tmp_path / "fleet", checkpoint_every=2)
    record = runner.run_slice()
    assert record["record"] == "slice"
    assert record["index"] == 0
    assert record["alive"] == 12
    assert record["sim_time"] == pytest.approx(state.runtime.now)
    status = runner.status()
    json.dumps(status)  # the status endpoint is machine-readable
    assert status["slices_done"] == 1
    assert status["running"] is False
    assert status["pending_reconfigurations"] == 0
    assert status["cache_policy"]
    # checkpoint_every=2: first checkpoint lands after the second slice.
    assert status["checkpoints"] == []
    runner.run_slice()
    assert len(runner.status()["checkpoints"]) == 1
    assert runner.status()["stream_records"] > 0


def test_background_thread_honors_max_slices(tmp_path):
    state = make_state(35, chaos=False)
    runner = FleetRunner(state, SLICE, max_slices=5, pace=0.0)
    with runner:
        deadline = time.monotonic() + 30.0
        while runner.running and time.monotonic() < deadline:
            time.sleep(0.01)
    assert state.slices_done == 5
    assert runner.last_error is None
    assert runner.status()["running"] is False


def test_background_thread_stop_is_prompt():
    state = make_state(35, chaos=False)
    runner = FleetRunner(state, SLICE, pace=10.0)  # would sleep 10s/slice
    runner.start()
    deadline = time.monotonic() + 30.0
    while state.slices_done < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    started = time.monotonic()
    runner.stop(timeout=30.0)
    assert time.monotonic() - started < 5.0, "stop() waited out the pace sleep"
    assert not runner.running


def test_background_thread_surfaces_errors():
    state = make_state(35, chaos=False)
    runner = FleetRunner(state, SLICE, max_slices=3)

    def explode(*args, **kwargs):
        raise RuntimeError("boom at slice boundary")

    state.step = explode
    runner.start()
    deadline = time.monotonic() + 30.0
    while runner.running and time.monotonic() < deadline:
        time.sleep(0.01)
    assert "boom" in runner.status()["error"]
    with pytest.raises(RuntimeError, match="boom"):
        runner.stop()


def test_reconfigure_request_applies_at_next_boundary(tmp_path):
    state = make_state(37, chaos=False)
    runner = FleetRunner(state, SLICE, tmp_path / "fleet")
    runner.run(2)
    before = state.runtime.config.rotation_probability
    runner.request_reconfigure({"rotation_probability": 0.75})
    assert runner.status()["pending_reconfigurations"] == 1
    # Nothing applied until a slice runs.
    assert runner.state.runtime.config.rotation_probability == before
    runner.run_slice()
    assert runner.state.runtime.config.rotation_probability == 0.75
    assert runner.state.reconfigurations == [
        {"slice": 2, "change": {"rotation_probability": 0.75}}
    ]
    # The round trip emitted a stream record and left a ring checkpoint.
    kinds = [r["record"] for r in runner.stream.read_all()]
    assert "reconfigure" in kinds
    assert runner.ring.header()["meta"]["reconfigure"] == {
        "rotation_probability": 0.75
    }


def test_bad_reconfigure_request_is_rejected_at_enqueue():
    """A bad change raises to the requester and is never queued, so the
    runner keeps slicing instead of dying on it at the next boundary."""
    state = make_state(37, chaos=False)
    runner = FleetRunner(state, SLICE, max_slices=3)
    for bad in (
        {"cache_policy": "model-aware-scalar"},
        {"cache_policy": "model-aware", "cache_bytes": 4},
        {"rotation_probability": 0.5, "bogus": 1},
    ):
        with pytest.raises(ValueError):
            runner.request_reconfigure(bad)
    assert runner.status()["pending_reconfigurations"] == 0
    with runner:
        deadline = time.monotonic() + 30.0
        while runner.running and time.monotonic() < deadline:
            time.sleep(0.01)
    assert runner.last_error is None
    assert runner.state.slices_done == 3
    assert runner.state.reconfigurations == []
    assert runner.state.runtime.config.rotation_probability == 0.1


def test_reconfigure_roundtrip_without_a_ring_uses_scratch():
    state = make_state(37, chaos=False)
    runner = FleetRunner(state, SLICE)  # no directory at all
    runner.run(1)
    runner.request_reconfigure({"snoop_probability": 0.5})
    runner.run_slice()
    assert runner.state.runtime.config.snoop_probability == 0.5
    # The restored state replaced the original object graph.
    assert runner.state is not state


# ----------------------------------------------------------------------
# serving attachment
# ----------------------------------------------------------------------


def test_frontend_serves_while_slicing_and_survives_reconfigure():
    from repro.query.ast import Query
    from repro.query.spatial import Rect
    from repro.serving.frontend import QueryFrontEnd

    state = make_state(39, chaos=False)
    frontend = QueryFrontEnd(state.runtime).start()
    runner = FleetRunner(state, SLICE, frontend=frontend, pace=0.005)
    query = Query(region=Rect(-1.0, -1.0, 2.0, 1.0), use_snapshot=True)
    try:
        runner.start()
        futures = [frontend.submit(query) for _ in range(8)]
        results = [future.result(timeout=30.0) for future in futures]
        assert all(result.result.reports for result in results)
        runner.request_reconfigure({"rotation_probability": 0.5})
        deadline = time.monotonic() + 30.0
        while runner.state.reconfigurations == [] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert runner.state.reconfigurations, "reconfiguration never applied"
        # The front end now serves the restored runtime...
        assert frontend.runtime is runner.state.runtime
        assert frontend.runtime is not state.runtime
        # ... and keeps answering on it.
        after = frontend.submit(query).result(timeout=30.0)
        assert after.result.reports
        status = runner.status()
        assert status["serving"]["served"] >= 9
    finally:
        runner.stop()
        frontend.stop()


def test_frontend_stats_feed_the_p99_objective():
    from repro.fleet import SLOConfig
    from repro.query.ast import Query
    from repro.query.spatial import Rect
    from repro.serving.frontend import QueryFrontEnd

    state = make_state(41, slo=SLOConfig(max_p99_seconds=1e-12), chaos=False)
    frontend = QueryFrontEnd(state.runtime).start()
    runner = FleetRunner(state, SLICE, frontend=frontend)
    query = Query(region=Rect(-1.0, -1.0, 2.0, 1.0), use_snapshot=True)
    try:
        runner.run_slice()
        assert state.monitor.violations == []  # nothing served yet
        frontend.submit(query).result(timeout=30.0)
        runner.run_slice()
        objectives = [v["objective"] for v in state.monitor.violations]
        assert "serving_p99" in objectives, (
            "served traffic above an impossible p99 ceiling never fired"
        )
    finally:
        frontend.stop()
