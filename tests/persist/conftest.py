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
import sys
import types
from collections import Counter
from functools import partial

import numpy as np
import pytest

from repro.core import protocol as protocol_module
from repro.core.config import ProtocolConfig
from repro.core.protocol import ProtocolNode
from repro.core.round_batch import BatchedObservationRouter
from repro.core.runtime import DEFAULT_CACHE_BYTES, SnapshotRuntime
from repro.data.random_walk import RandomWalkConfig, generate_random_walk
from repro.energy.battery import Battery
from repro.experiments.harness import make_cache_factory
from repro.models.cache import BYTES_PER_PAIR
from repro.models.cache_manager import ModelAwareCache
from repro.models.soa import ModelAwareCacheFleet
from repro.network.links import GlobalLoss
from repro.network.messages import DataReport
from repro.network.radio import Radio
from repro.network.state import DeviceState
from repro.network.topology import uniform_random_topology
from repro.obs.report import RunReport
from repro.obs.spans import SpanTracer
from repro.persist import RoundDigestRecorder, save_checkpoint
from repro.persist import checkpoint as checkpoint_module
from repro.persist.digest import StateDigest, _hexdigest
from repro.query.ast import Query
from repro.query.executor import QueryExecutor
from repro.query.spatial import random_square
from repro.simulation.engine import Simulator
from tests.models.scalar_oracle import ScalarOracleCache

N_NODES = 14
PERIOD = 25.0
HORIZON = 140.0


def _oracle_caches(factory):
    """``factory`` with each model-aware cache it builds replaced by a
    scalar oracle on the same budget."""

    def build():
        cache = factory() if factory else ModelAwareCache(DEFAULT_CACHE_BYTES)
        if isinstance(cache, ModelAwareCache):
            return ScalarOracleCache(cache.cache_bytes)
        return cache

    return build


class OracleRuntime(SnapshotRuntime):
    """Test-side reference for the fleet observation path.

    Whatever cache factory it is given, each model-aware cache is a
    :class:`~tests.models.scalar_oracle.ScalarOracleCache`, so it builds
    no fleet and applies every overheard sample by itself, inside the
    delivery that carried it.  Comparing a whole run against
    :class:`SnapshotRuntime` thus proves both the fleet engine against
    the scalar oracle and the run sweep against per-sample application.
    """

    def __init__(self, *args, cache_factory=None, **kwargs) -> None:
        super().__init__(*args, cache_factory=_oracle_caches(cache_factory), **kwargs)
        assert self.observation_router is None


def assert_runs_the_oracle(runtime) -> None:
    """Every cache of ``runtime`` is a scalar oracle cache."""
    caches = [node.cache for node in runtime.nodes.values()]
    assert caches and all(isinstance(cache, ScalarOracleCache) for cache in caches)


def build_runtime(
    seed: int,
    policy: str = "model-aware",
    loss: float = 0.0,
    oracle: bool = False,
    cache_bytes: int = 1024,
    **runtime_kwargs,
) -> SnapshotRuntime:
    """A small maintenance-ready network, fully determined by its knobs.

    ``oracle=True`` builds the :class:`OracleRuntime` reference instead;
    ``runtime_kwargs`` (batteries, cost model) go to its constructor.
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
        **runtime_kwargs,
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


# ----------------------------------------------------------------------
# the columnar training tick: its cases and route counts
# ----------------------------------------------------------------------
#
# A long snoop run on a runtime with a cache fleet takes
# ``core.protocol._snoop_columns``; there, every cache whose run stays
# in warm-up is applied in one pass (``ModelAwareCacheFleet.append_runs``)
# and the rest in waves (``BatchedObservationRouter._waves``).  Each
# case below drives the scripted run through one corner of that route,
# and counts which parts of it ran, so a case that stops reaching its
# corner fails instead of passing vacuously.


def count_routes(patch) -> Counter:
    """Count, through ``patch`` (a monkeypatch context): ``runs``, the
    snoop runs taking the columnar route; ``draws``, the snoop draws
    made inside it; ``one-pass`` and ``waves``, the samples the sweep
    applied each way."""
    routes = Counter()
    columns = protocol_module._snoop_columns
    append_runs = ModelAwareCacheFleet.append_runs
    waves = BatchedObservationRouter._waves
    stream = ProtocolNode._rng
    inside = []

    def counted_columns(*args):
        routes["runs"] += 1
        inside.append(True)
        try:
            columns(*args)
        finally:
            inside.pop()

    def counted_append_runs(fleet, *columns_):
        applied = append_runs(fleet, *columns_)
        routes["one-pass"] += int(applied.sum())
        return applied

    def counted_waves(router, lanes, *columns_):
        routes["waves"] += lanes.size
        return waves(router, lanes, *columns_)

    def counted_stream(node):
        if inside:
            routes["draws"] += 1
        return stream.fget(node)

    patch.setattr(protocol_module, "_snoop_columns", counted_columns)
    patch.setattr(ModelAwareCacheFleet, "append_runs", counted_append_runs)
    patch.setattr(BatchedObservationRouter, "_waves", counted_waves)
    patch.setattr(ProtocolNode, "_rng", property(counted_stream))
    return routes


#: When the hand-built waves of :func:`snoop_wave` go out: after
#: training, before the election starts.
WAVE_TIME = 8.0


def _send_wave(runtime, senders) -> None:
    nodes = runtime.nodes
    runtime.radio.broadcast_wave(
        DataReport(sender=i, query_id=0, origin=i, value=nodes[i].value_fn())
        for i in senders
    )


def _set_probabilities(runtime, probabilities) -> None:
    for node_id, probability in probabilities.items():
        runtime.nodes[node_id].snoop_probability = probability


def snoop_wave(senders, probability=None):
    """A step scheduling one wave of ``senders``' reports (repeats
    allowed) at :data:`WAVE_TIME`, heard with snoop probability
    ``probability(node_id)`` (1 when ``None``), restored a time unit
    later."""

    def step(runtime):
        nodes = runtime.nodes
        saved = {node_id: node.snoop_probability for node_id, node in nodes.items()}
        chosen = {
            node_id: 1.0 if probability is None else probability(node_id)
            for node_id in nodes
        }
        schedule = runtime.simulator.schedule_at
        schedule(WAVE_TIME, partial(_set_probabilities, runtime, chosen))
        schedule(WAVE_TIME, partial(_send_wave, runtime, list(senders)))
        schedule(WAVE_TIME + 1.0, partial(_set_probabilities, runtime, saved))

    return step


def _crash(runtime, node_id) -> None:
    runtime.radio.node(node_id).fail()


def crash_at(time, node_id):
    """A step scheduling ``node_id``'s crash at ``time``."""

    def step(runtime):
        runtime.simulator.schedule_at(time, partial(_crash, runtime, node_id))

    return step


def _no_draws(routes):
    return routes["runs"] and routes["one-pass"] and not routes["draws"]


#: ``name -> (runtime knobs, steps run before SCRIPT, route check)``.
#: Knobs are ``loss``, ``cache_bytes`` (pair budget), ``battery`` and
#: ``transmit`` (the transmit cost; the CPU cost stays 0.1).
COLUMNAR_CASES = {
    # Lost reports thin each tick's bursts; training still snoops at 1.
    "lossy-training": (dict(loss=0.3), (), _no_draws),
    # A receiver dead from the third tick on: its bursts are cut out.
    "crash-mid-training": (dict(), (crash_at(2.5, 4),), _no_draws),
    # The snoops' CPU draws empty batteries inside a tick, so the
    # radio cuts the wave into runs, some of them short.
    "drained-in-a-tick": (
        dict(battery=3.0, transmit=0.0),
        (),
        lambda routes: routes["runs"] and routes["one-pass"],
    ),
    # 25 pairs fill at the second tick's last sample (13 + 13 = 26
    # heard): those caches take the waves.
    "full-mid-tick": (
        dict(cache_bytes=25 * BYTES_PER_PAIR),
        (),
        lambda routes: routes["one-pass"] and routes["waves"],
    ),
    # Node 3 reports twice in one wave: its hearers take the waves.
    "repeated-sender": (
        dict(),
        (snoop_wave(list(range(N_NODES)) + [3]),),
        lambda routes: routes["one-pass"] and routes["waves"],
    ),
    # Half the hearers snoop at 0.3 and draw, one never snoops.
    "snoop-0.3": (
        dict(),
        (snoop_wave(range(N_NODES), lambda i: 0.0 if i == 1 else (0.3, 1.0)[i % 2]),),
        lambda routes: routes["draws"] and routes["one-pass"],
    ),
}


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


#: Where simulated time lived before the engine owned it.
PARENT_CLOCK_MODULE = "repro.simulation.clock"


def parent_clock_module() -> types.ModuleType:
    """A stand-in for the module that held ``SimulationClock``."""
    module = types.ModuleType(PARENT_CLOCK_MODULE)

    class SimulationClock:
        """Simulated time in ``_now``, read through a ``now`` property."""

        @property
        def now(self) -> float:
            return self._now

    SimulationClock.__module__ = PARENT_CLOCK_MODULE
    SimulationClock.__qualname__ = "SimulationClock"
    module.SimulationClock = SimulationClock
    return module


def save_parent_checkpoint(
    runtime, path, monkeypatch, samples=(), clock: bool = True
) -> None:
    """Save ``runtime`` as code before this engine and router wrote it.

    With ``clock``, the simulator holds its time in a
    ``repro.simulation.clock.SimulationClock`` (shared with its span
    tracer) instead of ``now``.  The simulator's observation barrier is
    the runtime's router, which holds ``samples`` — ``(node, neighbor,
    own value, neighbor value)`` tuples not yet applied — in its pending
    columns; the header's digests then carry them as the
    ``observations`` component, as that code recorded them.
    """
    module = parent_clock_module()
    router = runtime.observation_router
    parent_clock = module.SimulationClock()
    parent_clock._now = runtime.simulator.now
    columns = [list(column) for column in zip(*samples)] or [[], [], [], []]
    ids, neighbors, owns, values = columns

    class ParentPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, Simulator):
                state = dict(vars(obj), observation_barrier=router)
                if clock:
                    del state["now"]
                    state["clock"] = parent_clock
                return copyreg.__newobj__, (Simulator,), state
            if isinstance(obj, SpanTracer) and clock:
                state = dict(vars(obj), _clock=parent_clock)
                return copyreg.__newobj__, (SpanTracer,), state
            if isinstance(obj, BatchedObservationRouter):
                state = dict(
                    vars(obj),
                    nodes=runtime.nodes,
                    pending=ids,
                    _neighbors=neighbors,
                    _owns=owns,
                    _values=values,
                    _pending_time=runtime.simulator.now if samples else -1.0,
                )
                return copyreg.__newobj__, (BatchedObservationRouter,), state
            return NotImplemented

    real_digest = checkpoint_module.state_digest

    def parent_digest(target):
        digest = real_digest(target)
        if not samples:
            return digest
        components = dict(digest.components, observations=_hexdigest(tuple(samples)))
        return StateDigest(
            components, _hexdigest(tuple(sorted(components.items())))
        )

    with monkeypatch.context() as patch:
        patch.setitem(sys.modules, PARENT_CLOCK_MODULE, module)
        patch.setattr(checkpoint_module, "state_digest", parent_digest)
        save_with_pickler(runtime, path, monkeypatch, ParentPickler)
