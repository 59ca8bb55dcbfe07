"""Differential proof of the radio's burst dispatch.

A transmission's survivors ride one delivery *burst*: the radio books
every receiver in one pass (liveness, counters, receive energy) and then
hands the live receivers' protocols the whole burst in one call through
the protocol layer's per-message-type table, columnar for ``DataReport``
snoops.  The reference here is a test-only per-receiver medium: each
survivor, in turn, is checked for liveness, counted, charged its receive
cost and handed the message through ``NetworkNode.deliver`` →
``ProtocolNode._on_message``, the way a receiver-by-receiver radio runs
a delivery.  Whole runs must digest equal, with ``StateDigest.diff``
naming the first divergent component when they do not, over:

* lossless links and ``GlobalLoss(0.3)``;
* finite batteries with a nonzero receive cost, so receivers die in the
  middle of a burst;
* a crash/revive chaos schedule;
* message-driven query collection, whose rounds attach per-device
  handlers next to the protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.energy.costs import EnergyCostModel
from repro.faults import chaos
from repro.faults.chaos import ChaosConfig, ChaosRun
from repro.network import radio as radio_module
from repro.network.links import GlobalLoss
from repro.network.topology import uniform_random_topology
from repro.persist import RoundDigestRecorder
from repro.query.ast import Aggregate, Query
from repro.query.executor import QueryExecutor
from repro.query.spatial import random_square

from tests.persist.conftest import HORIZON, N_NODES, PERIOD, SCRIPT


class Radio(radio_module.Radio):
    """The per-receiver reference medium.

    It shares the production class's name on purpose: digests describe
    a pending delivery by its callback's qualified name and owner type,
    so in-flight bursts digest equal on both sides.
    """

    def _deliver_batch(self, message, receivers, target):
        cost_receive = self.cost_model.receive
        kind = message.kind
        for rid in receivers:
            device = self._nodes[rid]
            if not device.alive:
                self.stats.record_dropped_dead(message, 1)
                continue
            self.stats.delivered[(rid, kind)] += 1
            if cost_receive > 0:
                device.battery.draw(cost_receive)
                self.ledger.record(rid, "receive", cost_receive)
                if not device.alive:
                    continue
            device.deliver(message, target is not None and rid != target)


def per_receiver(runtime: SnapshotRuntime) -> SnapshotRuntime:
    """Switch ``runtime`` to the reference medium (before it runs)."""
    runtime.radio.__class__ = Radio
    return runtime


def _per_receiver_runtime(*args, **kwargs) -> SnapshotRuntime:
    return per_receiver(SnapshotRuntime(*args, **kwargs))


def build(seed, loss=0.0, battery=None, receive=0.0, reference=False):
    data_rng = np.random.default_rng(seed)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=N_NODES, n_classes=3, length=200), data_rng
    )
    topology = uniform_random_topology(N_NODES, 1.5, data_rng)
    runtime = SnapshotRuntime(
        topology,
        dataset,
        ProtocolConfig(threshold=1.0, heartbeat_period=PERIOD, rule4_retry=0.1),
        seed=seed,
        loss_model=GlobalLoss(loss),
        battery_capacity=battery,
        cost_model=EnergyCostModel(transmit=1.0, receive=receive, cpu_cache_update=0.1),
        keep_trace_records=True,
    )
    runtime.round_digests = RoundDigestRecorder(runtime)
    return per_receiver(runtime) if reference else runtime


def _messaged(aggregate):
    """A query collected by TAG rounds of real messages (see
    ``query.collection``): its handlers ride each tree member's device."""

    def step(runtime):
        executor = QueryExecutor(runtime)
        region = random_square(0.6, runtime.simulator.random.stream("burst-regions"))
        query = Query(
            region=region,
            aggregate=Aggregate.AVG if aggregate else None,
            use_snapshot=True,
        )
        try:
            result = executor.execute(query, messaged=True)
        except RuntimeError:
            return  # every node dead — still a trajectory to compare
        runtime.collected = getattr(runtime, "collected", 0) + len(result.reports)

    return step


def _advance(time):
    def step(runtime):
        runtime.advance_to(time)

    return step


#: The persist suite's script with message-driven queries in between.
MESSAGED_SCRIPT = SCRIPT[:4] + (
    _messaged(aggregate=False),
    _advance(80.0),
    _messaged(aggregate=True),
    _advance(105.0),
    _messaged(aggregate=False),
    _advance(HORIZON),
)


def run(script, **kwargs):
    runtime = build(**kwargs)
    for step in script:
        step(runtime)
    return runtime


def assert_same_run(burst, reference):
    """The burst run equals the per-receiver one, digest for digest."""
    ours, theirs = burst.state_digest(), reference.state_digest()
    assert ours.whole == theirs.whole, (
        f"burst dispatch diverges from per-receiver delivery in {ours.diff(theirs)}"
    )
    assert burst.round_digests.rounds == reference.round_digests.rounds
    assert burst.simulator.trace.counts == reference.simulator.trace.counts
    assert burst.simulator.events_processed == reference.simulator.events_processed


@pytest.mark.parametrize("loss", [0.0, 0.3], ids=["lossless", "lossy"])
def test_burst_matches_per_receiver(loss):
    burst = run(SCRIPT, seed=21, loss=loss)
    reference = run(SCRIPT, seed=21, loss=loss, reference=True)
    assert isinstance(reference.radio, Radio)
    assert type(burst.radio) is radio_module.Radio
    assert_same_run(burst, reference)
    assert burst.round_digests.rounds, "script must complete maintenance rounds"


@pytest.mark.parametrize(
    "battery",
    [
        pytest.param(35.0, id="die-snooping"),  # drained mid training burst
        pytest.param(45.0, id="die-electing"),  # drained by election traffic
    ],
)
def test_burst_matches_per_receiver_with_receive_cost(battery):
    """Receivers drained by their receive draw drop out of the burst."""
    kwargs = dict(seed=8, loss=0.3, battery=battery, receive=0.5)
    burst = run(SCRIPT, **kwargs)
    reference = run(SCRIPT, **kwargs, reference=True)
    assert_same_run(burst, reference)
    # Non-vacuity: receptions were paid for, and nodes died under traffic.
    assert burst.ledger.total("receive") > 0
    assert sum(burst.stats.dropped_dead.values()) > 0


def test_burst_matches_per_receiver_with_messaged_queries():
    """Collection handlers attached to devices run in the same burst."""
    burst = run(MESSAGED_SCRIPT, seed=5)
    reference = run(MESSAGED_SCRIPT, seed=5, reference=True)
    assert_same_run(burst, reference)
    assert burst.collected == reference.collected
    assert burst.collected > 0, "the collection handlers must receive reports"


def test_burst_matches_per_receiver_through_chaos(monkeypatch):
    """Crashes, revivals, partitions and a loss burst."""
    config = ChaosConfig(
        seed=17, n_nodes=8, n_faults=6, loss_burst=0.2, keep_trace_records=True
    )
    results = []
    for reference in (False, True):
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(chaos, "SnapshotRuntime", _per_receiver_runtime)
            run_ = ChaosRun(config)
            run_.start()
            results.append(run_.finish())
    burst, reference = results
    assert isinstance(reference.runtime.radio, Radio)
    ours = burst.runtime.state_digest()
    theirs = reference.runtime.state_digest()
    assert ours.whole == theirs.whole, (
        f"burst dispatch diverges from per-receiver delivery in {ours.diff(theirs)}"
    )
    assert (burst.ok, burst.crashes, burst.revivals, burst.reelections) == (
        reference.ok, reference.crashes, reference.revivals, reference.reelections
    )
    assert burst.crashes > 0 and burst.revivals > 0  # faults really fired
