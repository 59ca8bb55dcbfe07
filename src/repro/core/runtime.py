"""The top-level facade: a snapshot-enabled sensor network.

:class:`SnapshotRuntime` wires every substrate together — simulator,
radio, batteries, model stores, protocol nodes, election coordinator,
maintenance manager — into the object users (and the experiment
harness) drive:

>>> from repro import (SnapshotRuntime, RandomWalkConfig, ProtocolConfig,
...                    generate_random_walk, uniform_random_topology)
>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> dataset, _ = generate_random_walk(RandomWalkConfig(n_nodes=20, n_classes=2), rng)
>>> topology = uniform_random_topology(20, transmission_range=1.5, rng=rng)
>>> net = SnapshotRuntime(topology, dataset, ProtocolConfig(threshold=1.0))
>>> net.train(duration=10)
>>> view = net.run_election()
>>> 1 <= view.size <= 20
True
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional

from repro.core.config import ProtocolConfig
from repro.core.election import ElectionCoordinator
from repro.core.maintenance import MaintenanceManager
from repro.core.protocol import ProtocolNode, StructureTally
from repro.core.round_batch import BatchedObservationRouter
from repro.core.snapshot import SnapshotView
from repro.data.series import Dataset
from repro.energy.costs import PAPER_COST_MODEL, EnergyCostModel
from repro.models.cache import pairs_for_budget
from repro.models.cache_manager import ModelAwareCache
from repro.models.soa import ModelAwareCacheFleet
from repro.models.policy import CachePolicy
from repro.network.links import PERFECT_LINKS, LossModel
from repro.network.messages import DataReport
from repro.network.radio import Radio
from repro.network.topology import Topology
from repro.simulation.engine import Simulator

__all__ = ["SnapshotRuntime", "DEFAULT_CACHE_BYTES"]

#: The cache budget used everywhere the paper does not sweep it (§6.1).
DEFAULT_CACHE_BYTES = 2048


def _default_cache_factory() -> CachePolicy:
    """The model-aware manager at the paper's default budget.

    Module-level (not a lambda) so runtimes built with the default
    factory remain picklable for checkpoint/restore.
    """
    return ModelAwareCache(DEFAULT_CACHE_BYTES)


class _NodeValueReader:
    """A node's ``value_fn``: reads its ground-truth series at sim time.

    A callable object rather than a closure so protocol nodes — and the
    events that capture them — survive pickling.
    """

    __slots__ = ("runtime", "node_id")

    def __init__(self, runtime: "SnapshotRuntime", node_id: int) -> None:
        self.runtime = runtime
        self.node_id = node_id

    def __call__(self) -> float:
        return self.runtime.dataset.value(self.node_id, self.runtime.simulator.now)

    def read_many(self, readers: list) -> Optional[list[float]]:
        """The values of ``readers`` now, as one gather from the dataset.

        ``None`` unless every reader is a reader of this runtime; the
        caller then calls them one by one.
        """
        runtime = self.runtime
        ids = []
        for reader in readers:
            if type(reader) is not _NodeValueReader or reader.runtime is not runtime:
                return None
            ids.append(reader.node_id)
        return runtime.dataset.values_at(ids, runtime.simulator.now)


class SnapshotRuntime:
    """A fully assembled snapshot-query sensor network.

    Parameters
    ----------
    topology:
        Node placement and transmission ranges.
    dataset:
        Ground-truth measurement series, one per node; must cover at
        least as many nodes as the topology.
    config:
        Protocol configuration (threshold, metric, timings, ...).
    seed:
        Root seed of all random streams.
    loss_model:
        Link loss (the paper's ``P_loss``); lossless by default.
    cache_factory:
        Builds each node's cache policy; defaults to the model-aware
        manager with the paper's 2,048-byte budget.
    battery_capacity:
        Initial per-node charge in transmission units, or ``None`` for
        infinite batteries (the §6.1 setting).
    cost_model:
        Energy prices (defaults to the paper's §6.2 accounting).

    Overheard measurement observations are collected into per-burst
    batches and applied through one fleet sweep (see
    ``core.round_batch``) instead of one ``cache.observe`` call per
    delivery.  The differential suite in ``tests/persist/`` proves this
    bit-identical to applying each sample inside its delivery.
    """

    def __init__(
        self,
        topology: Topology,
        dataset: Dataset,
        config: Optional[ProtocolConfig] = None,
        seed: int = 0,
        loss_model: LossModel = PERFECT_LINKS,
        cache_factory: Optional[Callable[[], CachePolicy]] = None,
        battery_capacity: Optional[float] = None,
        cost_model: EnergyCostModel = PAPER_COST_MODEL,
        keep_trace_records: bool = False,
        metrics_enabled: bool = True,
    ) -> None:
        if dataset.n_nodes < len(topology):
            raise ValueError(
                f"dataset has {dataset.n_nodes} series but the topology "
                f"has {len(topology)} nodes"
            )
        self.topology = topology
        self.dataset = dataset
        self.config = config if config is not None else ProtocolConfig()
        self.seed = seed
        self.simulator = Simulator(
            seed=seed,
            keep_trace_records=keep_trace_records,
            metrics_enabled=metrics_enabled,
        )
        self.radio = Radio(
            self.simulator,
            topology,
            loss_model=loss_model,
            cost_model=cost_model,
        )
        self.radio.populate(battery_capacity=battery_capacity)
        if cache_factory is None:
            cache_factory = _default_cache_factory

        #: Epoch maximum and re-election total, kept by the protocol.
        self.tally = StructureTally()
        self.nodes: dict[int, ProtocolNode] = {}
        for node_id in topology.node_ids:
            self.nodes[node_id] = ProtocolNode(
                node_id=node_id,
                radio=self.radio,
                cache=cache_factory(),
                config=self.config,
                value_fn=self._value_fn(node_id),
                location=topology.position(node_id),
                tally=self.tally,
            )
        router = BatchedObservationRouter(
            self.simulator,
            self.nodes,
            fleet=self._build_fleet(),
        )
        self.observation_router = router
        self.simulator.observation_barrier = router
        self.radio.observation_router = router

        self.coordinator = ElectionCoordinator(
            self.simulator, self.nodes, self.config, tally=self.tally
        )
        self.maintenance = MaintenanceManager(
            self.simulator,
            self.nodes,
            self.config,
            self.radio.stats,
            router=self.observation_router,
        )

    def _build_fleet(self) -> Optional[ModelAwareCacheFleet]:
        """The shared cache fleet, lane ``node_id`` per node's cache.

        Model-aware caches on one byte budget are bound to the lanes of
        one fleet, the engine the observation router sweeps.  Node ids
        are ``0..N-1`` (``topology.node_ids``), so a node's id is its
        lane and the router needs no lane table.  Caches of another
        policy (round-robin) have no fleet: this returns ``None`` and
        the router applies their samples one by one.  Refused by name
        (``ValueError``): model-aware caches mixed with other policies
        or on several budgets, and a cache that already owns a lane
        (one used before the runtime was built).
        """
        policies = [self.nodes[node_id].cache for node_id in sorted(self.nodes)]
        model_aware = [isinstance(policy, ModelAwareCache) for policy in policies]
        if not any(model_aware):
            return None
        if not all(model_aware):
            raise ValueError(
                "model-aware caches cannot share a runtime with other cache policies"
            )
        budgets = sorted({policy.cache_bytes for policy in policies})
        if len(budgets) != 1:
            raise ValueError(
                f"model-aware caches must share one byte budget, got {budgets}"
            )
        cache_bytes = budgets[0]
        # A node only ever caches lines for senders it can hear, and a
        # cache never holds more lines than its pair budget.
        max_degree = max(
            len(self.topology.in_neighbors(node_id)) for node_id in sorted(self.nodes)
        )
        lines = max(1, min(max_degree, pairs_for_budget(cache_bytes)))
        fleet = ModelAwareCacheFleet(
            len(policies), cache_bytes, max_lines=lines, ring_cap=8
        )
        for node_id, policy in enumerate(policies):
            policy.bind_fleet(fleet, node_id)
        return fleet

    def _value_fn(self, node_id: int) -> Callable[[], float]:
        return _NodeValueReader(self, node_id)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.simulator.now

    @property
    def stats(self):
        """Message counters (see :class:`~repro.network.MessageStats`)."""
        return self.radio.stats

    @property
    def ledger(self):
        """Energy ledger (see :class:`~repro.energy.EnergyLedger`)."""
        return self.radio.ledger

    @property
    def metrics(self):
        """The engine's :class:`~repro.obs.registry.MetricsRegistry`."""
        return self.simulator.metrics

    @property
    def current_epoch(self) -> int:
        """The protocol epoch the network is settled at.

        Bumps exactly when a global (re-)election round starts — the
        only time the representative set is rebuilt wholesale — so
        snapshot answers computed at epoch ``e`` stay structurally
        valid while ``current_epoch == e``.  The max over the
        coordinator and every node (a node revived mid-election may
        briefly lag, but the network-wide epoch is monotone), read in
        O(1) from the running :attr:`tally`.
        """
        return self.tally.epoch

    def structure_version(self) -> tuple[int, int]:
        """``(current_epoch, total local re-elections)``.

        The epoch covers global rounds, the re-election counter the
        §5.1 maintenance repairs that reshape individual representative
        sets *within* an epoch: the tuple moves at an epoch bump and at
        the start of a re-election.  The structure also changes where
        it does not move (a re-election's choice, an Accept, a Recall,
        a member's expiry, a resignation), so a result cache keys on
        :meth:`state_key`.  O(1): both parts are running totals the
        protocol keeps in :attr:`tally`.
        """
        tally = self.tally
        return (tally.epoch, tally.reelections)

    def state_key(self) -> tuple:
        """``(structure_version, events processed, time, changes)``: the
        state a snapshot answer is a function of.  Accepts, Recalls and
        expiries run in events; ``changes`` counts liveness writes and
        resignations, which may also happen outside one.  Every part is
        monotone.  Protocol state edited by hand moves no part.
        """
        sim, changes = self.simulator, self.radio.devices.changes
        return (self.structure_version(), sim.events_processed, sim.now, changes)

    def value_of(self, node_id: int) -> float:
        """Ground-truth measurement of ``node_id`` right now."""
        return self.dataset.value(node_id, self.simulator.now)

    def alive_ids(self) -> list[int]:
        """Ids of alive nodes, ascending: battery not depleted and not
        crashed by fault injection (read from the radio's liveness
        column)."""
        return self.radio.alive_ids()

    # ------------------------------------------------------------------
    # driving the network
    # ------------------------------------------------------------------

    def train(
        self,
        start: Optional[float] = None,
        duration: float = 10.0,
        interval: float = 1.0,
    ) -> None:
        """Run the §6.1 warm-up: a query selecting every node's value.

        For ``duration`` time units, every alive node broadcasts a data
        report each ``interval``; neighbors cache every report they
        hear (snoop probability 1 during training), building their
        correlation models.  The simulator is advanced past the end of
        the window.
        """
        end = self._schedule_train(start=start, duration=duration, interval=interval)
        self.simulator.run_until(end)

    def _schedule_train(
        self,
        start: Optional[float] = None,
        duration: float = 10.0,
        interval: float = 1.0,
    ) -> float:
        """Schedule the training window's events; returns its end time."""
        for name, value in (("duration", duration), ("interval", interval)):
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(
                    f"training {name} must be positive and finite, got {value}"
                )
        t0 = self.simulator.now if start is None else start
        saved = {node_id: node.snoop_probability for node_id, node in self.nodes.items()}

        self.simulator.schedule_at(
            t0, partial(self._set_snoop, None), label="train:snoop-on"
        )
        tick = t0
        end = t0 + duration
        while tick < end:
            self.simulator.schedule_at(
                tick, self._train_broadcast, label="train:broadcast"
            )
            tick += interval
        self.simulator.schedule_at(
            end, partial(self._set_snoop, saved), label="train:snoop-restore"
        )
        return end

    def _set_snoop(self, probability: Optional[dict[int, float]]) -> None:
        """Set every node's snoop probability (``None`` = 1.0, training)."""
        for node_id, node in self.nodes.items():
            node.snoop_probability = (
                1.0 if probability is None else probability[node_id]
            )

    def _train_broadcast(self) -> None:
        """One training tick: every alive node broadcasts a data report,
        in id order, all delivered by one event (a radio *wave*)."""
        nodes = self.nodes
        self.radio.broadcast_wave(
            DataReport(sender=i, query_id=0, origin=i, value=nodes[i].value_fn())
            for i in sorted(nodes)
            if nodes[i].alive
        )

    def run_election(self, at: Optional[float] = None) -> SnapshotView:
        """Run one global election and return the settled snapshot."""
        t0 = self.simulator.now if at is None else at
        self.coordinator.start_round(at=t0)
        self.simulator.run_until(t0 + self.coordinator.settle_delay)
        return self.snapshot()

    def snapshot(self) -> SnapshotView:
        """Capture the current snapshot structure."""
        return SnapshotView.capture(self.nodes)

    def start_maintenance(self) -> None:
        """Arm the periodic §5.1 maintenance."""
        self.maintenance.start()

    def advance_to(self, time: float) -> None:
        """Run the simulation up to absolute ``time``."""
        self.simulator.run_until(time)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def state_digest(self):
        """Canonical per-component + whole-sim digest of the current state."""
        from repro.persist import state_digest

        return state_digest(self)

    def checkpoint(self, path, meta: Optional[dict] = None):
        """Freeze the complete network state to ``path``.

        Everything behavior-relevant is serialized — pending events,
        RNG stream states, every node's election/maintenance state,
        model caches, batteries, loss-overlay state, metrics — such
        that :meth:`restore` resumes on the *identical* trajectory the
        uninterrupted run would have taken (proven by the differential
        suite in ``tests/persist/``).  Returns the saved digest.
        """
        from repro.persist import save_checkpoint

        return save_checkpoint(self, path, meta=meta)

    @classmethod
    def restore(cls, path, verify: bool = True) -> "SnapshotRuntime":
        """Load a runtime previously saved with :meth:`checkpoint`."""
        from repro.persist import load_checkpoint

        obj = load_checkpoint(path, verify=verify)
        if not isinstance(obj, cls):
            raise TypeError(
                f"checkpoint at {path} holds a {type(obj).__name__}, "
                f"expected a {cls.__name__}"
            )
        return obj
