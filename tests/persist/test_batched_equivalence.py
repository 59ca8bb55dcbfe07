"""Differential proof that fleet sweeps match per-sample application.

``SnapshotRuntime`` applies each delivery run's overheard measurement
observations before the delivery event returns — a long run through one
``BatchedObservationRouter.flush`` sweep of the shared
``ModelAwareCacheFleet``, a short one sample by sample.  These cases pin
the equivalence contract against the test-side ``OracleRuntime``
(``tests/persist/conftest.py``), which builds no fleet and applies every
sample by itself: the *entire observable outcome* (whole-sim digest,
every component digest, trace records, message counters, event count,
report rows, per-round digests) is equal across both cache policies ×
lossless/lossy, through a randomized fault schedule, through a
checkpoint frozen mid-burst, and when a cache is read at the instant
after a run of either route.  The oracle's model-aware caches are the
scalar oracle of ``tests/models/scalar_oracle.py``, so the model-aware
cases double as the whole-run fleet-vs-oracle proof.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.protocol import SWEEP_MIN_SAMPLES, ProtocolNode
from repro.core.round_batch import BatchedObservationRouter
from repro.core.runtime import SnapshotRuntime
from repro.core.status import NodeMode
from repro.energy.costs import EnergyCostModel
from repro.faults import chaos
from repro.faults.chaos import ChaosConfig, ChaosRun
from repro.network.messages import DataReport, HeartbeatReply
from repro.network.radio import Radio
from repro.persist import load_checkpoint, save_checkpoint

from tests.persist.conftest import (
    COLUMNAR_CASES,
    HORIZON,
    SCRIPT,
    OracleRuntime,
    assert_outcomes_equal,
    assert_runs_the_oracle,
    build_runtime,
    count_routes,
    outcome,
)


def _run(seed, policy, loss, batched):
    runtime = build_runtime(seed, policy, loss, oracle=not batched)
    router = runtime.observation_router
    if batched and policy == "model-aware":
        # The whole deployment shares one fleet, one lane per node.
        assert router.fleet.F == len(runtime.nodes)
    else:
        assert router is None
    if not batched and policy == "model-aware":
        assert_runs_the_oracle(runtime)
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
    # The oracle runs scalar oracle caches, so this is also the
    # whole-run proof that the fleet engine matches the oracle.
    batched = _run(seed, "model-aware", loss, batched=True)
    assert_outcomes_equal(batched, _run(seed, "model-aware", loss, batched=False))
    assert batched["round_digests"], "script must complete maintenance rounds"


@pytest.mark.bench
@pytest.mark.parametrize("loss", [0.0, 0.3], ids=["lossless", "lossy"])
def test_extended_batched_matches_scalar_round_robin(loss):
    # No fleet for round-robin: both runtimes apply every sample by
    # itself, and ordering, effects and digests must match.
    assert_outcomes_equal(
        _run(4, "round-robin", loss, batched=True),
        _run(4, "round-robin", loss, batched=False),
    )


def _case_runtime(knobs, oracle):
    costs = EnergyCostModel(transmit=knobs.get("transmit", 1.0))
    return build_runtime(
        8,
        loss=knobs.get("loss", 0.0),
        cache_bytes=knobs.get("cache_bytes", 1024),
        oracle=oracle,
        battery_capacity=knobs.get("battery"),
        cost_model=costs,
    )


@pytest.mark.parametrize("case", sorted(COLUMNAR_CASES))
def test_columnar_tick_matches_the_oracle(monkeypatch, case):
    """Each corner of the columnar snoop route against the oracle,
    which has no fleet and so never takes it; the counts show the
    corner was reached."""
    knobs, steps, reached = COLUMNAR_CASES[case]
    outcomes = []
    for oracle in (False, True):
        runtime = _case_runtime(knobs, oracle)
        with monkeypatch.context() as patch:
            routes = count_routes(patch)
            for step in steps + SCRIPT:
                step(runtime)
        outcomes.append((outcome(runtime), routes))
    (batched, routes), (scalar, oracle_routes) = outcomes
    assert_outcomes_equal(batched, scalar)
    assert reached(routes), dict(routes)
    assert not oracle_routes["runs"]


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
    oracle = scalar.pop("runtime")
    assert isinstance(oracle, OracleRuntime)
    # chaos builds its caches through make_cache_factory; the oracle
    # must have swapped every one of them.
    assert_runs_the_oracle(oracle)
    assert batched.pop("runtime").observation_router is not None
    assert batched == scalar
    assert batched["crashes"] > 0  # non-vacuity: faults really fired


def test_batched_checkpoint_mid_burst_resumes(tmp_path):
    """Freeze mid-burst, right after the first training tick's delivery
    wave with the later ticks still queued: the wave's samples are
    already in the fleet, nothing is pending, and the restored run
    ends where the oracle's uninterrupted run does."""
    seed = 6
    reference = _run(seed, "model-aware", 0.0, batched=False)

    runtime = build_runtime(seed, "model-aware", 0.0)
    simulator = runtime.simulator
    # train()'s own schedule, stepped one event at a time.
    end = runtime._schedule_train(duration=6.0)
    observed = runtime.metrics.metric("cache.observe")
    while observed.total() == 0:
        assert simulator.run_until(end, max_events=1) == 1
    assert simulator.now < end and len(simulator.queue) > 0
    path = tmp_path / "mid-burst.ckpt"
    saved = save_checkpoint(runtime, path)
    frozen_observed = observed.total()
    del runtime

    resumed = load_checkpoint(path)
    assert isinstance(resumed, SnapshotRuntime)
    assert resumed.observation_router.fleet is not None
    assert resumed.metrics.metric("cache.observe").total() == frozen_observed
    assert resumed.state_digest().whole == saved.whole
    resumed.simulator.run_until(end)
    for step in SCRIPT[1:]:
        step(resumed)
    assert_outcomes_equal(outcome(resumed), reference)


def _read_soon_after_burst(batched):
    """Evaluate an election 0.049 time units after a training wave.

    Training ticks at 0 and 1 give every node its second sample of each
    neighbor in the wave delivered at 1.001; the election's evaluate
    phase at 1.05 then reads those caches through ``can_represent``.
    Applied any later than inside their delivery, the wave's samples
    miss the read (one sample is not yet a model), and the candidate
    lists come out different.
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


def test_batched_samples_land_before_a_read_soon_after_the_burst():
    lists, batched = _read_soon_after_burst(True)
    oracle_lists, scalar = _read_soon_after_burst(False)
    assert lists == oracle_lists
    assert_outcomes_equal(batched, scalar)
    # Non-vacuity: the read right after the burst found usable models.
    assert any(length for heard in lists.values() for length in heard.values())


def _report(runtime, node_id):
    """``node_id`` broadcasts one measurement report of its own."""
    value = runtime.nodes[node_id].value_fn()
    runtime.radio.broadcast(
        DataReport(sender=node_id, query_id=0, origin=node_id, value=value)
    )


def _heartbeat_after_snoop_run(monkeypatch, batched, route):
    """A passive node's report is snooped by its representative, and at
    the same instant, in the next delivery event, its heartbeat arrives
    there: the representative records the heartbeat sample and answers
    with an estimate from the line the run just fed.

    ``route`` picks the run: ``"inline"`` is the passive node's lone
    report (fewer than ``SWEEP_MIN_SAMPLES`` snoopers), ``"sweep"`` a
    training tick's wave of every node's report.  Returns the outcome,
    the replies' estimates, the sweeps made (each a list of
    ``(snooper, reporter)`` pairs) and the ``(snooper, reporter)``
    samples applied one by one, from the instant of the run on.
    """
    runtime = build_runtime(8, "model-aware", 0.0, oracle=not batched)
    _train, _elect = SCRIPT[:2]
    _train(runtime)
    _elect(runtime)
    passive = min(
        node_id
        for node_id, node in runtime.nodes.items()
        if node.mode is NodeMode.PASSIVE
    )
    node = runtime.nodes[passive]
    rep = node.representative_id

    sweeps, singles, replies = [], [], []
    flush = BatchedObservationRouter.flush
    record = ProtocolNode._record_observation
    unicast = Radio.unicast

    def counted_flush(self, ids, neighbors, owns, values):
        sweeps.append(list(zip(ids, neighbors)))
        flush(self, ids, neighbors, owns, values)

    def counted_record(self, neighbor_id, own, value):
        singles.append((self.node_id, neighbor_id))
        return record(self, neighbor_id, own, value)

    def seen_unicast(self, message, target):
        if isinstance(message, HeartbeatReply):
            replies.append((message.sender, message.target, message.estimate))
        return unicast(self, message, target)

    simulator = runtime.simulator
    t = runtime.now + 1.0
    simulator.schedule_at(t, partial(runtime._set_snoop, None))
    if route == "sweep":
        simulator.schedule_at(t, runtime._train_broadcast)
    else:
        simulator.schedule_at(t, partial(_report, runtime, passive))
    simulator.schedule_at(t, node.send_heartbeat)
    with monkeypatch.context() as patch:
        patch.setattr(BatchedObservationRouter, "flush", counted_flush)
        patch.setattr(ProtocolNode, "_record_observation", counted_record)
        patch.setattr(Radio, "unicast", seen_unicast)
        runtime.advance_to(t + 1.0)
    return outcome(runtime), replies, sweeps, singles, (passive, rep)


@pytest.mark.parametrize("route", ["inline", "sweep"])
def test_heartbeat_right_after_a_snoop_run_reads_its_samples(monkeypatch, route):
    batched, replies, sweeps, singles, (passive, rep) = _heartbeat_after_snoop_run(
        monkeypatch, True, route
    )
    scalar, oracle_replies, oracle_sweeps, _, _ = _heartbeat_after_snoop_run(
        monkeypatch, False, route
    )
    assert_outcomes_equal(batched, scalar)
    assert replies == oracle_replies
    assert not oracle_sweeps
    # The representative answered its member with an estimate.
    [(sender, target, estimate)] = replies
    assert (sender, target) == (rep, passive) and estimate is not None
    # Non-vacuity: the representative snooped the passive node's report
    # by the route under test, then recorded the heartbeat's sample.
    assert singles[-1] == (rep, passive)
    if route == "sweep":
        [run] = sweeps
        assert len(run) >= SWEEP_MIN_SAMPLES and (rep, passive) in run
        assert len(singles) == 1
    else:
        assert not sweeps
        snooped = singles[:-1]
        assert 0 < len(snooped) < SWEEP_MIN_SAMPLES and (rep, passive) in snooped
