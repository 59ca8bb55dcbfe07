"""Continuous fleet operation: bounded slices, rolling reconfiguration.

The paper's deployment model is a *service*, not a batch job: the
snapshot answers queries for the network's lifetime while maintenance
adapts the structure underneath.  This module makes the reproduction
operable that way:

* :class:`FleetState` — the checkpointable heart of a deployment: the
  runtime plus its probe-coverage series, :class:`~repro.fleet.slo.SLOMonitor`,
  optional :class:`~repro.faults.background.BackgroundChaos` schedule,
  and the log of applied reconfigurations.  One picklable graph, so the
  whole operating deployment freezes/restores through ``persist/``.
* :func:`apply_change` — the rolling-reconfiguration mutation: swap the
  loss model, the per-node cache policy (rebuilding the batched-round
  fleet), or the protocol's rotation/expiry/snoop knobs on a *live*
  runtime at a slice boundary.
* :class:`FleetRunner` — drives a :class:`FleetState` in bounded
  sim-time slices, optionally on a background thread, checkpointing to
  a rotating :class:`~repro.persist.ring.CheckpointRing`, streaming
  slice records / metrics snapshots / span timelines / SLO violations
  to a :class:`~repro.obs.stream.JsonlRing`, and applying requested
  reconfigurations as **checkpoint → mutate → restore** so every
  change lands on a state that provably round-trips.

Determinism argument (proven by ``tests/fleet/``): slicing only calls
``advance_to`` at intermediate times, which fires the identical event
sequence the single-shot run fires; probes draw from a runtime-owned
RNG stream that rides inside checkpoints; digesting, checkpointing and
JSONL streaming are pure reads.  A reconfiguration applied after a
checkpoint/restore round trip is therefore field-identical to the same
mutation applied directly to the live runtime at the same boundary.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Optional

from repro.faults.background import BackgroundChaos
from repro.faults.chaos import ChaosConfig
from repro.faults.injector import _FaultOverlayLoss
from repro.fleet.slo import SLOConfig, SLOMonitor
from repro.network.links import GlobalLoss, LossModel
from repro.obs.report import RunReport
from repro.obs.stream import JsonlRing
from repro.persist.checkpoint import load_checkpoint, save_checkpoint
from repro.persist.ring import CheckpointRing
from repro.query.coverage import CoverageSeries

__all__ = [
    "FleetRunner",
    "FleetState",
    "MUTABLE_PROTOCOL_FIELDS",
    "apply_change",
]

#: Protocol knobs a rolling reconfiguration may change mid-flight.
#: Timing knobs (heartbeat_period, reply windows) are excluded: armed
#: periodic tasks already captured them, so changing them would not
#: take effect until re-election and would only mislead.
MUTABLE_PROTOCOL_FIELDS = (
    "rotation_probability",
    "member_expiry_periods",
    "snoop_probability",
)


def _plan_change(config, change: dict[str, Any]) -> tuple:
    """Validate ``change`` against ``config`` without mutating anything.

    Builds every replacement a change installs — the loss model, the
    protocol config, the cache factory — so any bad field raises here,
    before :func:`apply_change` touches the runtime.  Returns
    ``(loss_model or None, protocol config or None, cache factory or
    None)``.
    """
    recognized = set(MUTABLE_PROTOCOL_FIELDS) | {
        "loss", "loss_model", "cache_policy", "cache_bytes",
    }
    unknown = sorted(set(change) - recognized)
    if unknown:
        raise ValueError(f"unknown reconfiguration keys {unknown}; "
                         f"choose from {sorted(recognized)}")
    if "loss" in change and "loss_model" in change:
        raise ValueError("give either 'loss' or 'loss_model', not both")
    if "cache_bytes" in change and "cache_policy" not in change:
        raise ValueError("'cache_bytes' requires 'cache_policy'")

    new_loss: Optional[LossModel] = None
    if "loss_model" in change:
        new_loss = change["loss_model"]
        if not isinstance(new_loss, LossModel):
            raise ValueError(
                f"'loss_model' must be a LossModel, got {type(new_loss).__name__}"
            )
    elif "loss" in change:
        new_loss = GlobalLoss(float(change["loss"]))

    protocol_updates = {
        key: change[key] for key in MUTABLE_PROTOCOL_FIELDS if key in change
    }
    new_config = (
        dataclasses.replace(config, **protocol_updates) if protocol_updates else None
    )

    factory = None
    if "cache_policy" in change:
        from repro.core.runtime import DEFAULT_CACHE_BYTES
        from repro.experiments.harness import make_cache_factory

        factory = make_cache_factory(
            change["cache_policy"],
            int(change.get("cache_bytes", DEFAULT_CACHE_BYTES)),
        )
        factory()  # the policy validates its budget on construction
    return new_loss, new_config, factory


def apply_change(target: Any, change: dict[str, Any]) -> None:
    """Apply one rolling-reconfiguration ``change`` to a live runtime.

    ``target`` is a runtime or anything exposing one via ``.runtime``
    (a :class:`FleetState`).  Recognized keys:

    ``loss``
        New global loss probability; replaces the base loss model
        *under* any armed fault overlay, so in-flight bursts and
        partitions keep composing over the new floor.
    ``loss_model``
        A :class:`~repro.network.links.LossModel` instance (programmatic
        variant of ``loss``).
    ``rotation_probability`` / ``member_expiry_periods`` / ``snoop_probability``
        Protocol knobs, rebound on the runtime, every node, the
        coordinator and the maintenance manager (the config dataclass
        is frozen, so a replaced copy is installed everywhere the old
        one was shared).
    ``cache_policy`` (with optional ``cache_bytes``)
        Swap every node's cache policy for a freshly built one
        (``"model-aware"`` or ``"round-robin"``) and rebuild the
        batched-round fleet to match.  Models are rebuilt from scratch
        — the new policy re-learns from post-change traffic.

    A change applies whole or not at all: every field is validated
    before the first mutation.  Raises ``ValueError`` on unknown keys
    or bad values and ``RuntimeError`` if a cache swap is attempted
    while the observation router holds pending observations (not a
    slice boundary).
    """
    runtime = getattr(target, "runtime", target)
    new_loss, new_config, factory = _plan_change(runtime.config, dict(change))
    router = runtime.observation_router
    if factory is not None and router is not None and router.pending:
        raise RuntimeError(
            "cache policy swap requires a quiescent observation "
            "router (reconfigure at a slice boundary)"
        )

    if new_loss is not None:
        current = runtime.radio.loss_model
        if isinstance(current, _FaultOverlayLoss):
            current.base = new_loss
        else:
            runtime.radio.loss_model = new_loss

    if new_config is not None:
        runtime.config = new_config
        for node in runtime.nodes.values():
            node.config = new_config
            if "snoop_probability" in change:
                node.snoop_probability = new_config.snoop_probability
        runtime.coordinator.config = new_config
        runtime.maintenance.config = new_config

    if factory is not None:
        from repro.models.estimator import NeighborModelStore

        for node_id in sorted(runtime.nodes):
            runtime.nodes[node_id].store = NeighborModelStore(factory())
        if router is not None:
            # None => the router applies samples scalarly (round-robin);
            # fresh model-aware caches bind to a new fleet.
            router.fleet = runtime._build_fleet()


class FleetState:
    """The checkpointable state of one continuously operating deployment."""

    def __init__(
        self,
        runtime,
        slo: Optional[SLOConfig] = None,
        probe_area: Optional[float] = 0.4,
    ) -> None:
        self.runtime = runtime
        self.monitor = SLOMonitor(slo)
        self.coverage = CoverageSeries()
        self.slices_done = 0
        self.reconfigurations: list[dict[str, Any]] = []
        self.chaos: Optional[BackgroundChaos] = None
        self.probe_area = probe_area

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------

    def attach_chaos(
        self,
        config: ChaosConfig,
        interval: Optional[float] = None,
        first_delay: Optional[float] = None,
        transient_only: bool = True,
    ) -> BackgroundChaos:
        """Arm a deterministic background fault schedule (see faults/)."""
        if self.chaos is not None and self.chaos.running:
            raise RuntimeError("a background chaos schedule is already armed")
        self.chaos = BackgroundChaos(
            self.runtime, config, interval=interval, transient_only=transient_only
        )
        self.chaos.start(first_delay=first_delay)
        return self.chaos

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def _probe(self) -> Optional[float]:
        """One coverage probe: a random snapshot query over the deployment.

        The region comes from a runtime-owned RNG stream, so probes are
        part of the deterministic trajectory and ride in checkpoints.
        """
        from repro.query.ast import Query
        from repro.query.executor import QueryExecutor
        from repro.query.spatial import random_square

        region = random_square(
            self.probe_area, self.runtime.simulator.random.stream("fleet.probes")
        )
        try:
            result = QueryExecutor(self.runtime).execute(
                Query(region=region, use_snapshot=True)
            )
        except RuntimeError:
            return None  # every node dead — no sample, still a valid state
        return self.coverage.record(result)

    def step(
        self,
        slice_length: float,
        frontend_stats: Optional[dict] = None,
    ) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        """Run one bounded slice; returns (slice record, new violations)."""
        runtime = self.runtime
        end = runtime.run_slice(slice_length)
        sample = self._probe() if self.probe_area is not None else None
        violations = self.monitor.evaluate(
            runtime, self.coverage.samples, self.slices_done,
            frontend_stats=frontend_stats,
        )
        record = {
            "record": "slice",
            "index": self.slices_done,
            "sim_time": end,
            "events_processed": runtime.simulator.events_processed,
            "epoch": runtime.current_epoch,
            "alive": len(runtime.alive_ids()),
            "coverage": sample,
            "violations": len(violations),
        }
        self.slices_done += 1
        return record, violations

    def reconfigure(self, change: dict[str, Any]) -> None:
        """Apply ``change`` to the live runtime and log it."""
        apply_change(self, change)
        self.reconfigurations.append(
            {"slice": self.slices_done, "change": dict(change)}
        )

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """A point-in-time, JSON-serializable view of the deployment."""
        runtime = self.runtime
        status = {
            "record": "status",
            "sim_time": runtime.simulator.now,
            "slices_done": self.slices_done,
            "events_processed": runtime.simulator.events_processed,
            "epoch": runtime.current_epoch,
            "structure_version": list(runtime.structure_version()),
            "n_nodes": len(runtime.nodes),
            "alive": len(runtime.alive_ids()),
            "maintenance_rounds": runtime.maintenance.rounds_completed,
            "messages_sent": sum(runtime.stats.sent.values()),
            "probes": len(self.coverage),
            "coverage_mean": self.coverage.mean,
            "violations": len(self.monitor.violations),
            "reconfigurations": len(self.reconfigurations),
            "rotation_probability": runtime.config.rotation_probability,
            "cache_policy": type(
                next(iter(runtime.nodes.values())).store.policy
            ).__name__ if runtime.nodes else None,
        }
        if self.coverage.samples:
            status["coverage_last"] = self.coverage.samples[-1]
        if self.chaos is not None:
            status["chaos_plans_armed"] = self.chaos.plans_armed
        return status

    def digest_extra(self) -> dict[str, Any]:
        """Fleet-level state folded into the whole-sim digest."""
        extra = {
            "fleet": (
                self.slices_done,
                self.probe_area,
                tuple(self.coverage.samples),
                tuple(
                    (entry["slice"], tuple(sorted(entry["change"].items())))
                    for entry in self.reconfigurations
                ),
                self.monitor.config,
                self.monitor.evaluations,
                tuple(
                    tuple(sorted(violation.items()))
                    for violation in self.monitor.violations
                ),
            )
        }
        if self.chaos is not None:
            extra.update(self.chaos.digest_extra())
        return extra


class FleetRunner:
    """Drive a :class:`FleetState` in slices, optionally on a thread.

    Parameters
    ----------
    state:
        The deployment to operate.
    slice_length:
        Sim-time per slice.
    directory:
        Fleet home; enables the checkpoint ring (``checkpoints/``) and
        the JSONL stream (``stream/``) when given.
    checkpoint_every:
        Checkpoint to the ring every N slices (0 disables periodic
        checkpoints; reconfiguration round trips still happen, through
        a scratch file when no ring exists).
    frontend:
        An attached :class:`~repro.serving.frontend.QueryFrontEnd`;
        slices and reconfigurations run under its runtime lock so
        serving stays race-free, and its stats feed the p99 SLO.
    pace:
        Wall-clock seconds to sleep between background-thread slices.
    max_slices:
        Stop the background loop after this many total slices.
    stream_trace:
        Also stream new trace records (span timelines) each slice;
        requires the runtime to keep trace records.
    """

    def __init__(
        self,
        state: FleetState,
        slice_length: float,
        directory: Optional[str | os.PathLike] = None,
        *,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 4,
        frontend=None,
        pace: float = 0.0,
        max_slices: Optional[int] = None,
        stream_trace: bool = False,
        metrics_every: int = 1,
    ) -> None:
        if slice_length <= 0:
            raise ValueError(f"slice_length must be positive, got {slice_length}")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.state = state
        self.slice_length = float(slice_length)
        self.directory = Path(directory) if directory is not None else None
        self.checkpoint_every = int(checkpoint_every)
        self.ring: Optional[CheckpointRing] = None
        self.stream: Optional[JsonlRing] = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.ring = CheckpointRing(
                self.directory / "checkpoints", keep=keep_checkpoints
            )
            self.stream = JsonlRing(self.directory / "stream")
        self.frontend = frontend
        self.pace = float(pace)
        self.max_slices = max_slices
        self.stream_trace = bool(stream_trace)
        self.metrics_every = int(metrics_every)
        self.last_error: Optional[BaseException] = None
        self._pending: deque[dict[str, Any]] = deque()
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._trace_streamed = 0

    # ------------------------------------------------------------------
    # streaming helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _jsonable(value: Any) -> Any:
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        if isinstance(value, dict):
            return {str(k): FleetRunner._jsonable(v) for k, v in value.items()}
        if isinstance(value, (list, tuple, set, frozenset)):
            return [FleetRunner._jsonable(v) for v in value]
        return repr(value)

    def _emit(self, record: dict[str, Any]) -> None:
        if self.stream is not None:
            self.stream.append(self._jsonable(record))

    def _stream_slice(self, record: dict, violations: list[dict]) -> None:
        if self.stream is None:
            return
        self._emit(record)
        for violation in violations:
            self._emit(violation)
        index = record["index"]
        if self.metrics_every and index % self.metrics_every == 0:
            report = RunReport.capture(
                self.state.runtime, meta={"slice": index}
            )
            self._emit(
                {"record": "metrics", "slice": index, "summary": report.summary()}
            )
        if self.stream_trace:
            trace = self.state.runtime.simulator.trace
            for entry in trace.records[self._trace_streamed:]:
                self._emit(
                    {
                        "record": "trace",
                        "time": entry.time,
                        "kind": entry.kind,
                        "payload": entry.payload,
                    }
                )
            self._trace_streamed = len(trace.records)

    # ------------------------------------------------------------------
    # rolling reconfiguration
    # ------------------------------------------------------------------

    def request_reconfigure(self, change: dict[str, Any]) -> None:
        """Queue ``change`` for the next slice boundary (thread-safe).

        The change is validated now, so a bad one raises ``ValueError``
        to the caller instead of stopping the fleet when it is applied.
        """
        change = dict(change)
        with self._lock:
            _plan_change(self.state.runtime.config, change)
            self._pending.append(change)

    def _roundtrip_reconfigure(self, change: dict[str, Any]) -> None:
        """checkpoint → mutate → restore: the rolling-reconfig contract.

        The mutation is applied to a state that just survived a full
        freeze/restore cycle, so (a) the pre-change state is durably on
        disk in the ring, and (b) determinism is preserved by
        construction — the differential suite proves the round trip is
        trajectory-neutral.
        """
        if self.ring is not None:
            path = self.ring.save(
                self.state, meta={"reconfigure": self._jsonable(change)}
            )
            new_state = load_checkpoint(path, verify=True)
        else:
            with tempfile.TemporaryDirectory() as scratch:
                path = os.path.join(scratch, "reconfigure.ckpt")
                save_checkpoint(self.state, path)
                new_state = load_checkpoint(path, verify=True)
        new_state.reconfigure(change)
        self.state = new_state
        if self.frontend is not None:
            self.frontend.rebind(new_state.runtime)
        self._emit(
            {
                "record": "reconfigure",
                "slice": new_state.slices_done,
                "sim_time": new_state.runtime.simulator.now,
                "change": change,
            }
        )

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def run_slice(self) -> dict[str, Any]:
        """Apply pending reconfigurations, run one slice, stream, checkpoint."""
        with self._lock:
            frontend_lock = (
                self.frontend.runtime_lock if self.frontend is not None
                else _NULL_LOCK
            )
            with frontend_lock:
                while self._pending:
                    self._roundtrip_reconfigure(self._pending.popleft())
                stats = (
                    self.frontend.stats() if self.frontend is not None else None
                )
                record, violations = self.state.step(
                    self.slice_length, frontend_stats=stats
                )
            self._stream_slice(record, violations)
            if (
                self.ring is not None
                and self.checkpoint_every
                and self.state.slices_done % self.checkpoint_every == 0
            ):
                self.ring.save(
                    self.state, meta={"slice": self.state.slices_done}
                )
            return record

    def run(self, n_slices: int) -> list[dict[str, Any]]:
        """Run ``n_slices`` slices in the calling thread."""
        return [self.run_slice() for _ in range(n_slices)]

    # ------------------------------------------------------------------
    # background thread
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                if (
                    self.max_slices is not None
                    and self.state.slices_done >= self.max_slices
                ):
                    break
                self.run_slice()
                if self.pace > 0:
                    self._stop.wait(self.pace)
        except BaseException as error:  # surfaced via status()/stop()
            self.last_error = error

    def start(self) -> "FleetRunner":
        """Start slicing on a daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-fleet", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop the background loop and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        if self.stream is not None:
            self.stream.close()
        if self.last_error is not None:
            raise self.last_error

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "FleetRunner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """The in-process status endpoint (thread-safe, read-only)."""
        with self._lock:
            status = self.state.status()
            status["running"] = self.running
            status["slice_length"] = self.slice_length
            status["pending_reconfigurations"] = len(self._pending)
            if self.max_slices is not None:
                status["max_slices"] = self.max_slices
            if self.ring is not None:
                status["checkpoints"] = [str(path) for path in self.ring.paths()]
            if self.stream is not None:
                status["stream_segments"] = [
                    str(path) for path in self.stream.segment_paths()
                ]
                status["stream_records"] = self.stream.records_written
            if self.frontend is not None:
                status["serving"] = self.frontend.stats()
            if self.last_error is not None:
                status["error"] = repr(self.last_error)
            return status


class _NullLock:
    """Stand-in context manager when no front end is attached."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_LOCK = _NullLock()
