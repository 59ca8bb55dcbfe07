"""Sharded multi-process simulation engine.

:class:`ShardedRuntime` splits a deployment across ``n_shards`` workers,
each running an ordinary :class:`~repro.core.runtime.SnapshotRuntime`
restricted to the nodes of one spatial partition strip (see
``simulation.partition``).  Every shard holds the *full* topology — so
range and loss computations are identical to the reference — but only
instantiates, schedules and meters its own nodes.  Radio transmissions
whose receivers live in another shard leave the sender's engine as
:class:`~repro.network.handoff.RadioHandoff` records and are injected
into the destination's event queue under the sender-minted lineage
stamp, so the merged event order is exactly the single-process order.

**Conservative window protocol.**  ``advance_to(T)`` repeatedly finds
the global minimum next-event time ``m`` across shards and lets every
shard with work before ``m + L`` process events in ``[m, m + L)`` (``L``
= the radio latency, the minimum delay of any boundary-crossing
delivery).  A handoff emitted at ``tau in [m, m + L)`` arrives at
``tau + L >= m + L`` — never inside the window that produced it — so
the shards can run their windows concurrently without ever delivering
a message into another shard's past.  When no event remains at or
before ``T``, a final ``run_until(T)`` in each shard flushes the
observation barrier and parks every clock at exactly ``T``.

**Two execution modes.**

* ``mode="inline"`` keeps every shard in-process.  This is the
  conformance configuration: the controller can reach into the live
  runtimes, so merged facades (``nodes``, ``stats``, ``simulator``,
  ``coordinator``) make the sharded engine a drop-in for the invariant
  checker, the fault injector and :class:`~repro.obs.report.RunReport`,
  and per-shard checkpoints freeze/restore the whole ensemble.
* ``mode="process"`` forks one OS process per shard and drives it over
  a pipe with the same driver ops — the configuration that actually
  buys wall-clock speedup (see ``benchmarks/bench_perf_shard.py``).
  Workers are context-managed: exceptions cross the pipe as a single
  :class:`ShardWorkerError` and ``close()`` joins with a timeout,
  escalating to ``terminate``/``kill`` so a wedged worker can never
  hang the driver (or pytest).

Equivalence with the single-process reference — same whole-run state
digest, same trace records, same report rows — is pinned by
``tests/simulation/test_shard_equivalence.py``.  It rests on the
per-entity RNG streams (``radio.<id>``, ``protocol.<id>``,
``maintenance.<id>``): every random stream is owned by exactly one node
and therefore by exactly one shard.
"""

from __future__ import annotations

import inspect
import multiprocessing
import traceback
from typing import Any, Callable, Iterable, Optional

from repro.core.config import ProtocolConfig
from repro.core.runtime import SnapshotRuntime
from repro.core.snapshot import SnapshotView
from repro.data.series import Dataset
from repro.energy.costs import PAPER_COST_MODEL, EnergyCostModel
from repro.models.policy import CachePolicy
from repro.network.handoff import RadioHandoff, split_by_owner
from repro.network.links import PERFECT_LINKS, LossModel
from repro.network.radio import Radio
from repro.network.topology import Topology
from repro.simulation.partition import ShardPartition, grid_partition

__all__ = ["ShardedRuntime", "ShardWorkerError"]

#: Seconds a worker gets to acknowledge ``stop`` / join before the
#: controller escalates to ``terminate`` and then ``kill``.
_JOIN_TIMEOUT = 5.0

#: Seconds the controller waits for any single RPC reply before
#: declaring the worker wedged.
_REPLY_TIMEOUT = 600.0


class ShardWorkerError(RuntimeError):
    """A shard worker failed; carries the remote traceback text."""

    def __init__(self, shard: int, detail: str) -> None:
        self.shard = shard
        self.detail = detail
        super().__init__(f"shard {shard} worker failed:\n{detail}")


def _radio_latency() -> float:
    """The radio's propagation delay — the window protocol's lookahead."""
    return inspect.signature(Radio.__init__).parameters["latency"].default


class _HandoffOutbox:
    """Collects boundary-crossing deliveries emitted by one shard's radio.

    A tiny callable object (not a bound controller method) so a shard
    runtime that references it as ``radio.handoff_sink`` stays
    independently picklable for per-shard checkpoints.
    """

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: list[RadioHandoff] = []

    def __call__(self, handoff: RadioHandoff) -> None:
        self.items.append(handoff)

    def drain(self) -> list[RadioHandoff]:
        items, self.items = self.items, []
        return items


def _wire_shard(runtime: SnapshotRuntime, shard_index: int) -> _HandoffOutbox:
    """Attach the sharded-engine hooks to a freshly built shard runtime."""
    simulator = runtime.simulator
    simulator.enable_lineage()
    # Only the shard-0 spine emits network-global observability
    # (election/maintenance round counters, spans, spine trace records);
    # per-node emissions stay with the owning shard.
    simulator.shared_emitter = shard_index == 0
    outbox = _HandoffOutbox()
    runtime.radio.shard_local_ids = runtime.local_ids
    runtime.radio.handoff_sink = outbox
    # Maintenance iterates the *global* id list so every shard consumes
    # root lineage indices in the same order (skipping remote nodes),
    # and records raw (window_total, n_alive) ingredients per round for
    # the exact-division merge.
    runtime.maintenance.global_node_ids = sorted(runtime.topology.node_ids)
    runtime.maintenance.shard_accounting = True
    return outbox


class _ShardServer:
    """Executes driver ops against one shard-local runtime.

    The same object backs both execution modes: the inline handle calls
    its methods directly; the process worker dispatches pipe messages to
    them by name.  Ops that mint driver-context (root) events call
    ``lineage.begin_batch()`` first — the controller invokes them in
    lockstep on every shard, which is what keeps root stamps aligned.
    """

    def __init__(self, runtime: SnapshotRuntime, outbox: _HandoffOutbox) -> None:
        self.runtime = runtime
        self.outbox = outbox
        self.injector = None

    # -- driver ops (lockstep across shards) -------------------------------

    def schedule_train(self, start, duration, interval) -> float:
        self.runtime.simulator.lineage.begin_batch()
        return self.runtime._schedule_train(
            start=start, duration=duration, interval=interval
        )

    def start_round(self, at) -> int:
        self.runtime.simulator.lineage.begin_batch()
        return self.runtime.coordinator.start_round(at=at)

    def start_maintenance(self) -> None:
        self.runtime.simulator.lineage.begin_batch()
        self.runtime.maintenance.start()

    def stop_maintenance(self, close_partial: bool) -> None:
        self.runtime.simulator.lineage.begin_batch()
        self.runtime.maintenance.stop(close_partial=close_partial)

    def apply_plan(self, plan, at) -> float:
        from repro.faults.injector import FaultInjector

        self.runtime.simulator.lineage.begin_batch()
        if self.injector is None:
            self.injector = FaultInjector(
                self.runtime, local_ids=self.runtime.local_ids
            )
        return self.injector.apply(plan, at=at)

    # -- window protocol ----------------------------------------------------

    def next_time(self) -> Optional[float]:
        return self.runtime.simulator.queue.peek_time()

    def run_window(self, bound: float, limit: float):
        fired = self.runtime.simulator.run_window(bound, limit)
        return fired, self.next_time(), self.outbox.drain()

    def run_until(self, limit: float):
        self.runtime.simulator.run_until(limit)
        return self.outbox.drain()

    def deliver(self, fragments: list[RadioHandoff]) -> Optional[float]:
        for fragment in fragments:
            self.runtime.radio.receive_handoff(fragment)
        return self.next_time()

    # -- state queries -------------------------------------------------------

    def now(self) -> float:
        return self.runtime.simulator.now

    def settle_delay(self) -> float:
        return self.runtime.coordinator.settle_delay

    def window_total(self) -> int:
        return self.runtime.stats.window_protocol_total()

    def message_total(self) -> int:
        return sum(self.runtime.stats.sent.values())

    def export(self) -> dict:
        from repro.persist import export_shard_state

        return export_shard_state(self.runtime)

    def raise_error(self, message: str) -> None:
        """Test hook: fail this shard (teardown regression coverage)."""
        raise RuntimeError(message)


class _InlineHandle:
    """Runs a shard server in the controller's own process."""

    def __init__(self, shard: int, server: _ShardServer) -> None:
        self.shard = shard
        self.server = server
        self._result: Any = None

    @property
    def runtime(self) -> SnapshotRuntime:
        return self.server.runtime

    def send(self, op: str, *args) -> None:
        self._result = getattr(self.server, op)(*args)

    def recv(self) -> Any:
        result, self._result = self._result, None
        return result

    def call(self, op: str, *args) -> Any:
        self.send(op, *args)
        return self.recv()

    def close(self) -> None:  # symmetry with _ProcessHandle
        pass


def _build_shard_runtime(spec: dict) -> tuple[SnapshotRuntime, _HandoffOutbox]:
    runtime = SnapshotRuntime(
        spec["topology"],
        spec["dataset"],
        config=spec["config"],
        seed=spec["seed"],
        loss_model=spec["loss_model"],
        cache_factory=spec["cache_factory"],
        battery_capacity=spec["battery_capacity"],
        cost_model=spec["cost_model"],
        keep_trace_records=spec["keep_trace_records"],
        metrics_enabled=spec["metrics_enabled"],
        local_ids=spec["members"],
    )
    outbox = _wire_shard(runtime, spec["shard_index"])
    return runtime, outbox


def _shard_worker(conn, spec: dict) -> None:
    """Process-mode worker loop: build the shard, serve ops until ``stop``."""
    try:
        runtime, outbox = _build_shard_runtime(spec)
        server = _ShardServer(runtime, outbox)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ok", None))  # ready
    while True:
        try:
            request = conn.recv()
        except EOFError:
            break
        op, args = request
        if op == "stop":
            conn.send(("ok", None))
            break
        try:
            result = getattr(server, op)(*args)
        except BaseException:
            conn.send(("error", traceback.format_exc()))
            continue
        conn.send(("ok", result))
    conn.close()


class _ProcessHandle:
    """Drives a forked shard worker over a pipe."""

    def __init__(self, shard: int, spec: dict, context) -> None:
        self.shard = shard
        self._conn, child = context.Pipe()
        self.process = context.Process(
            target=_shard_worker,
            args=(child, spec),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        self.process.start()
        child.close()
        self._closed = False
        self.recv()  # ready handshake (raises ShardWorkerError on failure)

    def send(self, op: str, *args) -> None:
        self._conn.send((op, args))

    def recv(self) -> Any:
        if not self._conn.poll(_REPLY_TIMEOUT):
            raise ShardWorkerError(self.shard, "worker did not reply in time")
        try:
            status, payload = self._conn.recv()
        except EOFError:
            raise ShardWorkerError(self.shard, "worker pipe closed unexpectedly")
        if status == "error":
            raise ShardWorkerError(self.shard, payload)
        return payload

    def call(self, op: str, *args) -> Any:
        self.send(op, *args)
        return self.recv()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        process = self.process
        try:
            if process.is_alive():
                self._conn.send(("stop", ()))
                if self._conn.poll(_JOIN_TIMEOUT):
                    self._conn.recv()
        except (BrokenPipeError, OSError, EOFError, ShardWorkerError):
            pass
        finally:
            self._conn.close()
        process.join(_JOIN_TIMEOUT)
        if process.is_alive():
            process.terminate()
            process.join(_JOIN_TIMEOUT)
        if process.is_alive():  # pragma: no cover - terminate() suffices on POSIX
            process.kill()
            process.join(_JOIN_TIMEOUT)


# ----------------------------------------------------------------------
# merged facades (inline mode)
# ----------------------------------------------------------------------


class _FanoutSubscription:
    """Cancels one logical subscription attached to every shard's trace."""

    def __init__(self, subscriptions: list) -> None:
        self._subscriptions = subscriptions

    def cancel(self) -> None:
        for subscription in self._subscriptions:
            subscription.cancel()


class _TraceFacade:
    """Merged view of the per-shard trace logs."""

    def __init__(self, controller: "ShardedRuntime") -> None:
        self._controller = controller

    def subscribe(self, kind: str, callback) -> _FanoutSubscription:
        return _FanoutSubscription(
            [
                runtime.simulator.trace.subscribe(kind, callback)
                for runtime in self._controller._runtimes
            ]
        )

    @property
    def records(self) -> list:
        return self._controller.merged_records()


class _SimulatorFacade:
    """What report capture and the invariant checker need of an engine.

    ``schedule`` lands on shard 0 — its only caller is the checker's
    message-bound probe, which runs from inside a shard-0 trace
    subscriber (``election.started`` is a spine emission), so the event
    is minted in event context and never disturbs root-stamp lockstep.
    """

    def __init__(self, controller: "ShardedRuntime") -> None:
        self._controller = controller
        self.trace = _TraceFacade(controller)
        self.profiler = None

    @property
    def now(self) -> float:
        return self._controller.now

    @property
    def metrics(self):
        return self._controller.merged_metrics()

    def schedule(self, delay, callback, label="", priority=0):
        return self._controller._runtimes[0].simulator.schedule(
            delay, callback, label=label, priority=priority
        )


class _StatsFacade:
    """Merged message counters across shards."""

    def __init__(self, controller: "ShardedRuntime") -> None:
        self._controller = controller

    def mark(self) -> list:
        return [runtime.stats.mark() for runtime in self._controller._runtimes]

    def protocol_sent_per_node(self, since=None) -> dict[int, int]:
        runtimes = self._controller._runtimes
        marks = [None] * len(runtimes) if since is None else since
        merged: dict[int, int] = {}
        for runtime, mark in zip(runtimes, marks):
            for node, count in runtime.stats.protocol_sent_per_node(
                since=mark
            ).items():
                merged[node] = merged.get(node, 0) + count
        return merged

    def max_protocol_messages_any_node(self, since=None) -> int:
        per_node = self.protocol_sent_per_node(since=since)
        return max(per_node.values(), default=0)

    def window_protocol_total(self) -> int:
        return sum(
            runtime.stats.window_protocol_total()
            for runtime in self._controller._runtimes
        )


class _MaintenanceFacade:
    """Merged maintenance manager view (round count is replicated)."""

    def __init__(self, controller: "ShardedRuntime") -> None:
        self._controller = controller

    @property
    def rounds_completed(self) -> int:
        return self._controller._runtimes[0].maintenance.rounds_completed

    def start(self) -> None:
        self._controller.start_maintenance()

    def stop(self) -> None:
        self._controller.stop_maintenance()


class ShardedRuntime:
    """A snapshot network simulated across ``n_shards`` partitioned engines.

    Accepts the :class:`~repro.core.runtime.SnapshotRuntime` construction
    parameters plus the shard count and execution mode.  Each node draws
    from its own random streams, so its draws are independent of which
    engine hosts it.

    Use as a context manager (or call :meth:`close`) so process-mode
    workers are always reaped::

        with ShardedRuntime(topology, dataset, config, n_shards=4,
                            mode="process") as net:
            net.train(duration=10)
            net.run_election()
            digest = net.state_digest()
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
        n_shards: int = 2,
        mode: str = "inline",
    ) -> None:
        if mode not in ("inline", "process"):
            raise ValueError(f"unknown shard mode {mode!r}")
        if config is None:
            config = ProtocolConfig()
        self.topology = topology
        self.config = config
        self.seed = seed
        self.mode = mode
        self.n_shards = n_shards
        self._lookahead = _radio_latency()
        self.partition: ShardPartition = grid_partition(
            topology, n_shards, lookahead=self._lookahead
        )
        self._pending: list[RadioHandoff] = []
        self._closed = False
        specs = [
            {
                "topology": topology,
                "dataset": dataset,
                "config": config,
                "seed": seed,
                "loss_model": loss_model,
                "cache_factory": cache_factory,
                "battery_capacity": battery_capacity,
                "cost_model": cost_model,
                "keep_trace_records": keep_trace_records,
                "metrics_enabled": metrics_enabled,
                "members": self.partition.shard_members(shard),
                "shard_index": shard,
            }
            for shard in range(n_shards)
        ]
        if mode == "inline":
            self._handles: list = []
            for shard, spec in enumerate(specs):
                runtime, outbox = _build_shard_runtime(spec)
                self._handles.append(_InlineHandle(shard, _ShardServer(runtime, outbox)))
        else:
            context = multiprocessing.get_context("fork")
            self._handles = []
            try:
                for shard, spec in enumerate(specs):
                    self._handles.append(_ProcessHandle(shard, spec, context))
            except BaseException:
                self.close()
                raise
        self.simulator = _SimulatorFacade(self)
        self.stats = _StatsFacade(self)
        self.maintenance = _MaintenanceFacade(self)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Tear down every shard (idempotent; joins, then kills, workers)."""
        if self._closed:
            return
        self._closed = True
        errors = []
        for handle in self._handles:
            try:
                handle.close()
            except Exception as error:  # pragma: no cover - defensive
                errors.append(error)
        if errors:  # pragma: no cover - defensive
            raise errors[0]

    # -- internals -----------------------------------------------------------

    @property
    def _runtimes(self) -> list[SnapshotRuntime]:
        if self.mode != "inline":
            raise RuntimeError(
                "live shard state is only reachable in inline mode; "
                "process-mode shards are driven over pipes"
            )
        return [handle.runtime for handle in self._handles]

    def _lockstep(self, op: str, *args) -> list:
        """Run one driver op on every shard (concurrently in process mode)."""
        failure = None
        for handle in self._handles:
            try:
                handle.send(op, *args)
            except ShardWorkerError as error:
                failure = failure or error
        results = []
        for handle in self._handles:
            try:
                results.append(handle.recv())
            except ShardWorkerError as error:
                failure = failure or error
        if failure is not None:
            self.close()
            raise failure
        return results

    @staticmethod
    def _require_equal(values: list, what: str):
        first = values[0]
        if any(value != first for value in values[1:]):
            raise RuntimeError(f"shards disagree on {what}: {values!r}")
        return first

    def _route(self) -> list[tuple[int, list[RadioHandoff]]]:
        """Split buffered handoffs by owner; returns per-shard batches."""
        if not self._pending:
            return []
        per_shard: dict[int, list[RadioHandoff]] = {}
        for handoff in self._pending:
            for shard, fragment in split_by_owner(
                handoff, self.partition.assignment
            ).items():
                per_shard.setdefault(shard, []).append(fragment)
        self._pending.clear()
        return [(shard, per_shard[shard]) for shard in sorted(per_shard)]

    # -- the conservative window protocol ------------------------------------

    def advance_to(self, time: float) -> None:
        """Run every shard up to absolute ``time`` under windowed sync."""
        handles = self._handles
        next_times = self._lockstep("next_time")
        lookahead = self._lookahead
        while True:
            due = [t for t in next_times if t is not None and t <= time]
            if not due:
                break
            bound = min(due) + lookahead
            active = [
                shard
                for shard, t in enumerate(next_times)
                if t is not None and t < bound and t <= time
            ]
            failure = None
            for shard in active:
                try:
                    handles[shard].send("run_window", bound, time)
                except ShardWorkerError as error:
                    failure = failure or error
            for shard in active:
                try:
                    _, next_times[shard], handoffs = handles[shard].recv()
                except ShardWorkerError as error:
                    failure = failure or error
                    continue
                self._pending.extend(handoffs)
            if failure is not None:
                self.close()
                raise failure
            for shard, fragments in self._route():
                next_times[shard] = handles[shard].call("deliver", fragments)
        leftovers = self._lockstep("run_until", time)
        for handoffs in leftovers:
            if handoffs:  # pragma: no cover - protocol soundness guard
                raise RuntimeError(
                    "window protocol violation: handoffs emitted by the "
                    "final drain"
                )

    def idle_until(self, time: float) -> None:
        """Alias of :meth:`advance_to` (parity with the reference API)."""
        self.advance_to(time)

    # -- driving the network --------------------------------------------------

    @property
    def now(self) -> float:
        return self._require_equal(self._lockstep("now"), "clock")

    @property
    def nodes(self) -> dict:
        merged: dict = {}
        for runtime in self._runtimes:
            merged.update(runtime.nodes)
        return dict(sorted(merged.items()))

    @property
    def coordinator(self):
        return self._runtimes[0].coordinator

    def alive_ids(self) -> list[int]:
        ids: list[int] = []
        for runtime in self._runtimes:
            ids.extend(runtime.alive_ids())
        return sorted(ids)

    def train(
        self,
        start: Optional[float] = None,
        duration: float = 10.0,
        interval: float = 1.0,
    ) -> None:
        """The reference's §6.1 warm-up, planted identically in every shard."""
        ends = self._lockstep("schedule_train", start, duration, interval)
        self.advance_to(self._require_equal(ends, "training end"))

    def run_election(self, at: Optional[float] = None) -> Optional[SnapshotView]:
        """One global election; returns the settled snapshot (inline mode)."""
        t0 = self.now if at is None else at
        self._require_equal(self._lockstep("start_round", t0), "election epoch")
        settle = self._require_equal(
            self._lockstep("settle_delay"), "settle delay"
        )
        self.advance_to(t0 + settle)
        if self.mode == "inline":
            return self.snapshot()
        return None

    def snapshot(self) -> SnapshotView:
        return SnapshotView.capture(self.nodes)

    def start_maintenance(self) -> None:
        self._lockstep("start_maintenance")

    def stop_maintenance(self) -> None:
        """Stop maintenance with one *global* partial-round verdict.

        The reference closes a partial round iff the current global
        window saw protocol traffic; each shard only sees its own slice,
        so the controller sums the windows and passes the verdict down.
        """
        close_partial = bool(sum(self._lockstep("window_total")))
        self._lockstep("stop_maintenance", close_partial)

    def apply_fault_plan(self, plan, at: Optional[float] = None) -> float:
        """Arm ``plan`` on every shard; returns the quiescence horizon."""
        base = self.now if at is None else at
        return self._require_equal(
            self._lockstep("apply_plan", plan, base), "fault plan horizon"
        )

    def message_total(self) -> int:
        """Total messages sent across all shards (cheap bench checksum)."""
        return sum(self._lockstep("message_total"))

    # -- merged state ---------------------------------------------------------

    def shard_exports(self) -> list[dict]:
        """One :func:`~repro.persist.export_shard_state` snapshot per shard."""
        return self._lockstep("export")

    def state_digest(self):
        """The merged digest — equal to the reference's ``state_digest()``."""
        from repro.persist import merged_state_digest

        return merged_state_digest(self.shard_exports())

    def merged_records(self) -> list[tuple]:
        """All shards' trace records, normalized and globally ordered."""
        from repro.persist.digest import canonical_bytes

        records = []
        for runtime in self._runtimes:
            for record in runtime.simulator.trace.records:
                records.append(
                    (record.time, record.kind, tuple(sorted(record.payload.items())))
                )
        records.sort(key=lambda r: (r[0], r[1], canonical_bytes(r[2])))
        return records

    def merged_metrics(self):
        """One registry holding every shard's cells (reference-identical)."""
        from repro.obs.shardmetrics import export_metrics, merge_metrics

        runtimes = self._runtimes
        costs: list[float] = []
        for ingredients in zip(
            *(runtime.maintenance._round_costs for runtime in runtimes)
        ):
            total = sum(pair[0] for pair in ingredients)
            alive = sum(pair[1] for pair in ingredients)
            if alive > 0:
                costs.append(total / alive)
        return merge_metrics(
            [export_metrics(runtime.simulator.metrics) for runtime in runtimes],
            maintenance_costs=costs,
        )

    def capture_report(self, coverage=None, meta: Optional[dict] = None):
        """The merged :class:`~repro.obs.report.RunReport` of this run."""
        from repro.obs.report import RunReport

        return RunReport.capture(self, coverage=coverage, meta=meta)

    # -- checkpoint / restore -------------------------------------------------

    def checkpoint(self, path, meta: Optional[dict] = None) -> list[str]:
        """Freeze every shard to ``<path>.shard<k>``; returns the paths.

        Valid at any quiescent instant (after :meth:`advance_to`
        returns): clocks agree, outboxes are empty and no handoff is in
        flight, so each shard file is an independent, verifiable
        checkpoint of one partition.
        """
        from repro.persist import save_checkpoint

        if self._pending:  # pragma: no cover - advance_to drains these
            raise RuntimeError("cannot checkpoint with handoffs in flight")
        paths = []
        for shard, runtime in enumerate(self._runtimes):
            shard_meta = {"shard": shard, "n_shards": self.n_shards}
            if meta:
                shard_meta.update(meta)
            shard_path = f"{path}.shard{shard}"
            save_checkpoint(runtime, shard_path, meta=shard_meta)
            paths.append(shard_path)
        return paths

    @classmethod
    def restore(
        cls, path, n_shards: int, verify: bool = True
    ) -> "ShardedRuntime":
        """Rebuild a sharded run from per-shard checkpoint files."""
        from repro.persist import load_checkpoint

        runtimes = [
            load_checkpoint(f"{path}.shard{shard}", verify=verify)
            for shard in range(n_shards)
        ]
        self = cls.__new__(cls)
        first = runtimes[0]
        self.topology = first.topology
        self.config = first.config
        self.seed = first.seed
        self.mode = "inline"
        self.n_shards = n_shards
        self._lookahead = first.radio.latency
        assignment = {
            node_id: shard
            for shard, runtime in enumerate(runtimes)
            for node_id in runtime.local_ids
        }
        self.partition = ShardPartition(
            n_shards=n_shards,
            assignment=assignment,
            topology=first.topology,
            lookahead=self._lookahead,
        )
        self._pending = []
        self._closed = False
        self._handles = [
            _InlineHandle(shard, _ShardServer(runtime, runtime.radio.handoff_sink))
            for shard, runtime in enumerate(runtimes)
        ]
        self.simulator = _SimulatorFacade(self)
        self.stats = _StatsFacade(self)
        self.maintenance = _MaintenanceFacade(self)
        return self
