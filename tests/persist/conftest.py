"""Shared machinery for the checkpoint/restore differential suite.

The suite proves resume equivalence: a run frozen to disk at an
arbitrary point and restored must be *bit-identical, event-for-event*
to the uninterrupted run — same trace records, same per-round and
whole-sim digests, same message counters, same RunReport rows.

Everything here is deliberately driven only by runtime-owned random
streams (``simulator.random.stream(...)``), never by test-local
generators, so the complete source of randomness rides inside the
checkpoint.

Extended-matrix cases (named ``test_extended_*``) are marked ``bench``
where they are defined — the ``benchmarks/`` convention — so tier-1's
``-m 'not bench'`` deselection keeps the default run fast while CI's
``persist`` job runs the full matrix.
"""

from __future__ import annotations

import copyreg
import io
import pickle

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.round_batch import BatchedObservationRouter
from repro.core.runtime import SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.energy.battery import Battery
from repro.experiments.harness import make_cache_factory
from repro.network.links import GlobalLoss
from repro.network.radio import Radio
from repro.network.state import DeviceState
from repro.network.topology import uniform_random_topology
from repro.obs.report import RunReport
from repro.persist import RoundDigestRecorder, save_checkpoint
from repro.persist import checkpoint as checkpoint_module
from repro.query.ast import Query
from repro.query.executor import QueryExecutor
from repro.query.spatial import random_square

N_NODES = 14
PERIOD = 25.0
HORIZON = 140.0


class _EagerRouter(BatchedObservationRouter):
    """The production router, flushed after every sample of a burst.

    Each overheard sample is then applied inside the delivery that
    carried it, in burst and receiver order, before the run's CPU
    charges — the order a stand-alone node applies it inline.
    """

    def enqueue_burst(self, node_ids, neighbor_ids, own_values, neighbor_values) -> None:
        for node_id, neighbor_id, own, value in zip(
            node_ids, neighbor_ids, own_values, neighbor_values
        ):
            super().enqueue_burst([node_id], [neighbor_id], [own], [value])
            self.flush()


class OracleRuntime(SnapshotRuntime):
    """Test-side reference for the batched observation path.

    It builds no fleet, so its model-aware caches run the scalar §4
    ``CacheLine`` engine, and its router flushes after every sample.
    Comparing a whole run against :class:`SnapshotRuntime` thus proves
    both the fleet engine against the scalar one and the burst
    barrier against per-delivery application.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        router = _EagerRouter(
            self.simulator,
            self.nodes,
            fleet=None,
        )
        self.observation_router = router
        self.simulator.observation_barrier = router
        self.radio.observation_router = router
        self.maintenance.router = router

    def _build_fleet(self):
        return None


def build_runtime(
    seed: int,
    policy: str = "model-aware",
    loss: float = 0.0,
    oracle: bool = False,
    cache_bytes: int = 1024,
) -> SnapshotRuntime:
    """A small maintenance-ready network, fully determined by its knobs.

    ``oracle=True`` builds the :class:`OracleRuntime` reference instead.
    """
    data_rng = np.random.default_rng(seed)
    dataset, _ = generate_random_walk(
        RandomWalkConfig(n_nodes=N_NODES, n_classes=3, length=200), data_rng
    )
    topology = uniform_random_topology(N_NODES, 1.5, data_rng)
    runtime = (OracleRuntime if oracle else SnapshotRuntime)(
        topology,
        dataset,
        # rule4_retry is shrunk so the election settles in ~13 time
        # units instead of the paper's ~121, keeping the scripted
        # horizon (and the whole differential matrix) short.
        ProtocolConfig(threshold=1.0, heartbeat_period=PERIOD, rule4_retry=0.1),
        seed=seed,
        loss_model=GlobalLoss(loss),
        cache_factory=make_cache_factory(policy, cache_bytes),
        keep_trace_records=True,
    )
    # Rides inside the pickled graph, so per-round digests survive the
    # freeze/restore cycle along with everything else.
    runtime.round_digests = RoundDigestRecorder(runtime)
    return runtime


def _train(runtime):
    runtime.train(duration=6.0)


def _elect(runtime):
    runtime.advance_to(20.0)
    runtime.run_election()


def _maintain(runtime):
    runtime.start_maintenance()


def _query(runtime):
    executor = QueryExecutor(runtime)
    region = random_square(0.4, runtime.simulator.random.stream("diff-regions"))
    try:
        executor.execute(Query(region=region, use_snapshot=True))
    except RuntimeError:
        pass  # every node dead — still a valid trajectory to compare


def _advance(time):
    def step(runtime):
        runtime.advance_to(time)

    return step


#: The scripted workload every differential case drives.  Checkpoints
#: may cut between any two steps (and, separately, mid-step at an
#: arbitrary event index).
SCRIPT = (
    _train,
    _elect,
    _maintain,
    _advance(55.0),
    _query,
    _advance(80.0),
    _query,
    _advance(105.0),
    _query,
    _advance(HORIZON),
)


def outcome(runtime) -> dict:
    """Everything the differential comparison asserts on, in one dict."""
    digest = runtime.state_digest()
    report = RunReport.capture(runtime, meta={"case": "differential"})
    return {
        "whole": digest.whole,
        "components": digest.components,
        "trace_records": list(runtime.simulator.trace.records),
        "trace_counts": dict(runtime.simulator.trace.counts),
        "sent": dict(runtime.stats.sent),
        "delivered": dict(runtime.stats.delivered),
        "dropped": dict(runtime.stats.dropped),
        "events_processed": runtime.simulator.events_processed,
        "now": runtime.simulator.now,
        "report_meta": report.meta,
        "report_rows": report.rows,
        "round_digests": list(runtime.round_digests.rounds),
    }


def assert_outcomes_equal(resumed: dict, reference: dict) -> None:
    """Field-by-field comparison, so a divergence names what broke."""
    assert resumed["events_processed"] == reference["events_processed"]
    assert resumed["now"] == reference["now"]
    assert resumed["trace_counts"] == reference["trace_counts"]
    assert resumed["trace_records"] == reference["trace_records"]
    assert resumed["sent"] == reference["sent"]
    assert resumed["delivered"] == reference["delivered"]
    assert resumed["dropped"] == reference["dropped"]
    assert resumed["report_meta"] == reference["report_meta"]
    assert resumed["report_rows"] == reference["report_rows"]
    assert resumed["round_digests"] == reference["round_digests"]
    assert resumed["components"] == reference["components"]
    assert resumed["whole"] == reference["whole"]


def run_reference(seed: int, policy: str, loss: float) -> dict:
    runtime = build_runtime(seed, policy, loss)
    for step in SCRIPT:
        step(runtime)
    return outcome(runtime)


class _ColumnlessBatteryPickler(pickle.Pickler):
    """Pickles each battery with its own ``_charge`` and ``_spent``, as
    code before the energy columns did, and no ``_state`` it is a view of."""

    def reducer_override(self, obj):
        if not isinstance(obj, Battery):
            return NotImplemented
        state = {"_capacity": obj.capacity, "_charge": obj.charge, "_spent": obj.spent}
        return copyreg.__newobj__, (Battery,), state


class _CountlessDeviceStatePickler(pickle.Pickler):
    """Pickles the device state without its ``changes`` count, as code
    before the count did."""

    def reducer_override(self, obj):
        if not isinstance(obj, DeviceState):
            return NotImplemented
        state = {k: v for k, v in vars(obj).items() if k != "changes"}
        return copyreg.__newobj__, (DeviceState,), state


class _DevicelessRadioPickler(pickle.Pickler):
    """Pickles the radio without its ``devices`` columns (its devices'
    batteries keep theirs)."""

    def reducer_override(self, obj):
        if not isinstance(obj, Radio):
            return NotImplemented
        state = {k: v for k, v in vars(obj).items() if k != "devices"}
        return copyreg.__newobj__, (type(obj),), state


def save_with_pickler(runtime, path, monkeypatch, pickler) -> None:
    """Save ``runtime`` to ``path`` as a checkpoint file with a valid
    header and payload hash, its payload written by ``pickler``."""

    def dumps(obj, protocol):
        buffer = io.BytesIO()
        pickler(buffer, protocol=protocol).dump(obj)
        return buffer.getvalue()

    with monkeypatch.context() as patch:
        patch.setattr(checkpoint_module.pickle, "dumps", dumps)
        save_checkpoint(runtime, path)


def save_mismatched_checkpoint(runtime, path, monkeypatch) -> None:
    """Save ``runtime`` with batteries that lack the ``_state`` field
    this code's ``Battery`` reads."""
    save_with_pickler(runtime, path, monkeypatch, _ColumnlessBatteryPickler)


def save_countless_checkpoint(runtime, path, monkeypatch) -> None:
    """Save ``runtime`` with a device state that lacks the ``changes``
    count, which the state digests do not read."""
    save_with_pickler(runtime, path, monkeypatch, _CountlessDeviceStatePickler)


def save_deviceless_checkpoint(runtime, path, monkeypatch) -> None:
    """Save ``runtime`` with a radio that lacks the ``devices`` columns
    every delivery reads."""
    save_with_pickler(runtime, path, monkeypatch, _DevicelessRadioPickler)
