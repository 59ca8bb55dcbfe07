"""The query serving front door.

:class:`QueryFrontEnd` admits many concurrent clients against one live
:class:`~repro.core.runtime.SnapshotRuntime`:

* **Bounded admission.**  ``submit`` is callable from any number of
  client threads; requests beyond ``max_queue`` are rejected with
  :class:`AdmissionRejected` instead of piling up unboundedly, and a
  ``max_cost`` budget rejects queries whose planned transmission cost
  exceeds what the deployment should spend on one client (cost-based
  admission over the :class:`~repro.query.planner.QueryCostEstimate`
  numbers: transmissions, bytes on the network, nodes touched).
* **Batched dispatch.**  A single dispatcher thread drains the queue in
  batches and groups requests by sink, taking *one* aggregation tree
  per group and passing it through ``execute(tree=...)`` — in-flight
  queries with the same sink (their regions all overlap the flood,
  which spans the network) share the tree instead of re-flooding per
  query.  Over a lossless radio the executor also reuses the tree
  across batches while the network state holds
  (:meth:`~repro.query.executor.QueryExecutor.build_tree`).  Execution
  is serialized on the runtime, which is what makes a single-threaded
  simulator safe to serve from many clients.
* **State-keyed result reuse.**  Snapshot-mode results are cached in an
  :class:`~repro.serving.cache.EpochResultCache` keyed by the state
  the answer was computed at
  (:meth:`~repro.core.runtime.SnapshotRuntime.state_key`): the
  structure version, the simulator's event count and clock, and the
  runtime's count of liveness writes and resignations, which may
  happen outside any event.  A cached result is replayed verbatim
  until any of them moves.  Regular-mode
  results read live values and are never cached.

Serving metrics land in the runtime's registry: ``serving.admitted``
(outcome-labeled), ``serving.cache`` (hit/miss per served request),
``serving.queue_depth``, ``serving.batch_size``, ``serving.trees``
(floods performed) and the ``serving.latency`` histogram :meth:`stats`
reports p50/p99 from.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.runtime import SnapshotRuntime
from repro.query.ast import Query
from repro.query.executor import QueryExecutor, QueryResult
from repro.query.planner import QueryCostEstimate, QueryPlan, QueryPlanner

__all__ = [
    "AdmissionRejected",
    "LATENCY_BUCKETS",
    "QueryFrontEnd",
    "ServedResult",
]

#: Buckets of the ``serving.latency`` histogram, in wall-clock seconds.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Buckets of the ``serving.batch_size`` histogram.
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Most requests one dispatch drains (and can share trees across).
BATCH_MAX = 32

#: LRU bound of the state-keyed result cache.
CACHE_CAPACITY = 1024


class AdmissionRejected(RuntimeError):
    """A query the front door refused to enqueue.

    ``reason`` is ``"queue"`` (admission queue full), ``"cost"``
    (planned cost above the front-end's ``max_cost`` budget) or
    ``"stopped"`` (submitted after :meth:`QueryFrontEnd.stop`, with no
    dispatcher left to serve it; :meth:`QueryFrontEnd.start` admits
    again).
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class ServedResult:
    """One served query: the answer plus how it was produced.

    Attributes
    ----------
    result:
        The query result (identical whether served fresh or cached —
        the differential suite in ``tests/serving/`` proves it).
    plan:
        The planner's mode decision for the query.
    estimate:
        The pre-dispatch cost estimate admission was judged on.
    cached:
        Whether the result was replayed from the result cache.
    version:
        The runtime structure version the result was computed at.
    latency:
        Wall-clock seconds from ``submit`` to completion.
    """

    result: QueryResult
    plan: QueryPlan
    estimate: QueryCostEstimate
    cached: bool
    version: tuple
    latency: float


@dataclass(frozen=True)
class _CacheEntry:
    result: QueryResult
    plan: QueryPlan
    estimate: QueryCostEstimate
    version: tuple


@dataclass
class _Request:
    query: Query
    planned_query: Query
    sink: int
    plan: QueryPlan
    estimate: QueryCostEstimate
    future: Future
    t0: float


class QueryFrontEnd:
    """Admit, plan, batch and serve queries against a live runtime.

    Parameters
    ----------
    runtime:
        The deployment to serve from.
    planner:
        The cost-based planner; a fresh :class:`QueryPlanner` over
        ``runtime`` if omitted (pass one wrapping a
        ``MultiResolutionSnapshot`` to serve per-query thresholds).
    max_queue:
        Bound of the admission queue; further submits are rejected.
    max_cost:
        Reject queries whose estimated *total* transmissions exceed
        this; ``None`` admits everything the queue can hold.
    cache:
        Enable the state-keyed result cache (:data:`CACHE_CAPACITY`
        entries).
    default_sink:
        Sink for submits that name none; the smallest alive id when
        ``None`` — serving needs a *deterministic* default, a random
        per-request sink would shatter result reuse.
    charge_energy:
        Forwarded to the executor: fresh executions transmit real
        (energy-charged, snoopable) radio messages.
    """

    def __init__(
        self,
        runtime: SnapshotRuntime,
        planner: Optional[QueryPlanner] = None,
        *,
        max_queue: int = 256,
        max_cost: Optional[float] = None,
        cache: bool = True,
        default_sink: Optional[int] = None,
        charge_energy: bool = True,
    ) -> None:
        from repro.serving.cache import EpochResultCache

        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.runtime = runtime
        self.planner = planner if planner is not None else QueryPlanner(runtime)
        self.executor: QueryExecutor = self.planner.executor
        self.max_cost = max_cost
        self.default_sink = default_sink
        self.charge_energy = charge_energy
        self.cache: Optional[EpochResultCache] = (
            EpochResultCache(CACHE_CAPACITY) if cache else None
        )
        self._queue: "queue.Queue[_Request]" = queue.Queue(maxsize=max_queue)
        # Reentrant so a driver holding it may still call ``submit``.
        self._runtime_lock = threading.RLock()
        self._dispatcher: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        # Orders admission against ``stop``: once ``_stopping`` is set
        # under it, no request can reach the queue behind the
        # dispatcher's last look.
        self._admission = threading.Lock()
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        metrics = self.runtime.metrics
        self._admitted = metrics.counter("serving.admitted", labels=("outcome",))
        self._cache_served = metrics.counter("serving.cache", labels=("outcome",))
        self._queue_depth = metrics.gauge("serving.queue_depth")
        self._batch_hist = metrics.histogram("serving.batch_size", BATCH_BUCKETS)
        self._trees = metrics.counter("serving.trees")
        self._latency = metrics.histogram("serving.latency", LATENCY_BUCKETS)

    @property
    def runtime_lock(self) -> threading.RLock:
        """The lock serializing every runtime touch.

        A driver that advances the simulation while the front end
        serves must hold this around ``advance_to`` so dispatch never
        interleaves with event processing.
        """
        return self._runtime_lock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "QueryFrontEnd":
        """Start the dispatcher thread (idempotent)."""
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._stopping.clear()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
            )
            self._dispatcher.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving.

        ``drain`` finishes every admitted request first; otherwise the
        queue is flushed and pending futures are cancelled.
        """
        if not drain:
            while True:
                try:
                    request = self._queue.get_nowait()
                except queue.Empty:
                    break
                request.future.cancel()
        with self._admission:
            self._stopping.set()
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None

    def __enter__(self) -> "QueryFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # front door
    # ------------------------------------------------------------------

    def submit(self, query: Query, sink: Optional[int] = None) -> "Future[ServedResult]":
        """Admit one query; returns a future resolving to its result.

        Callable from any thread.  A cache hit resolves immediately in
        the caller's thread without touching the execution path; a miss
        is planned, admission-checked, and enqueued for the dispatcher.

        Raises
        ------
        AdmissionRejected
            When the front end is stopped (``reason="stopped"``), the
            admission queue is full (``reason="queue"``) or the planned
            cost exceeds ``max_cost`` (``reason="cost"``).
        """
        if self._stopping.is_set():
            self._reject_stopped()
        t0 = time.perf_counter()
        sink = self._resolve_sink(sink)
        future: "Future[ServedResult]" = Future()

        if self.cache is not None:
            entry = self.cache.get(self.state_key(), (query, sink))
            if entry is not None:
                self._admitted.inc("admitted")
                self._cache_served.inc("hit")
                self._finish(future, t0, entry, cached=True)
                return future

        with self._runtime_lock:
            plan = self.planner.plan(query)
            planned_query = self.planner.rewrite(query, plan)
        estimate = plan.estimate
        if self.max_cost is not None and estimate.total_transmissions > self.max_cost:
            self._admitted.inc("rejected_cost")
            raise AdmissionRejected(
                "cost",
                f"estimated cost {estimate.total_transmissions:.1f} tx exceeds "
                f"the front-end budget {self.max_cost:g}",
            )
        request = _Request(
            query=query,
            planned_query=planned_query,
            sink=sink,
            plan=plan,
            estimate=estimate,
            future=future,
            t0=t0,
        )
        with self._admission:
            if self._stopping.is_set():
                self._reject_stopped()
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self._admitted.inc("rejected_queue")
                raise AdmissionRejected(
                    "queue",
                    f"admission queue is full ({self._queue.maxsize} pending)",
                ) from None
        self._admitted.inc("admitted")
        self._queue_depth.set(self._queue.qsize())
        return future

    def run_workload(
        self,
        requests: Sequence[Union[Query, tuple[Query, Optional[int]]]],
        clients: int = 4,
    ) -> list[ServedResult]:
        """Fire ``requests`` from a pool of ``clients`` threads.

        The thread-pool front door in convenience form: each request is
        a query or a ``(query, sink)`` pair, submitted concurrently and
        awaited.  Admission rejections propagate.
        """
        def one(item) -> ServedResult:
            query, sink = item if isinstance(item, tuple) else (item, None)
            return self.submit(query, sink=sink).result()

        with ThreadPoolExecutor(max_workers=max(1, clients)) as pool:
            return list(pool.map(one, requests))

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            batch = [first]
            while len(batch) < BATCH_MAX:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._queue_depth.set(self._queue.qsize())
            self._batch_hist.observe(len(batch))
            groups: dict[int, list[_Request]] = {}
            for request in batch:
                groups.setdefault(request.sink, []).append(request)
            for sink in sorted(groups):
                self._execute_group(sink, groups[sink])

    def _execute_group(self, sink: int, requests: list[_Request]) -> None:
        """Serve one same-sink group, sharing a single aggregation tree."""
        executor = self.executor
        with self._runtime_lock:
            tree = None
            for request in requests:
                if not request.future.set_running_or_notify_cancel():
                    continue
                state = self.state_key()
                key = (request.query, request.sink)
                if self.cache is not None:
                    entry = self.cache.get(state, key)
                    if entry is not None:
                        # A duplicate earlier in this batch (or a
                        # concurrent client) already executed it.
                        self._cache_served.inc("hit")
                        self._finish(request.future, request.t0, entry, cached=True)
                        continue
                self._cache_served.inc("miss")
                try:
                    if tree is None:
                        floods = executor.floods
                        tree = executor.build_tree(
                            sink, use_snapshot=request.planned_query.use_snapshot
                        )
                        if executor.floods != floods:
                            self._trees.inc()
                    result = executor.execute(
                        request.planned_query,
                        sink=sink,
                        tree=tree,
                        charge_energy=self.charge_energy,
                    )
                except Exception as error:  # surface to the client
                    request.future.set_exception(error)
                    continue
                entry = _CacheEntry(result, request.plan, request.estimate, state[0])
                if self.cache is not None and result.query.use_snapshot:
                    self.cache.put(state, key, entry)
                self._finish(request.future, request.t0, entry, cached=False)

    def state_key(self) -> tuple:
        """The runtime's :meth:`~repro.core.runtime.SnapshotRuntime.state_key`:
        a cached answer is replayed until it moves."""
        return self.runtime.state_key()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _reject_stopped(self) -> None:
        self._admitted.inc("rejected_stopped")
        raise AdmissionRejected(
            "stopped", "the front end is stopped; start() it to admit queries"
        )

    def _resolve_sink(self, sink: Optional[int]) -> int:
        if sink is None:
            sink = self.default_sink
        if sink is None:
            alive = self.runtime.alive_ids()
            if not alive:
                raise RuntimeError("no alive node can act as sink")
            sink = min(alive)
        return int(sink)

    def _finish(
        self,
        future: "Future[ServedResult]",
        t0: float,
        entry: _CacheEntry,
        cached: bool,
    ) -> None:
        latency = time.perf_counter() - t0
        self._latency.observe(latency)
        served = ServedResult(
            result=entry.result,
            plan=entry.plan,
            estimate=entry.estimate,
            cached=cached,
            version=entry.version,
            latency=latency,
        )
        if not future.cancelled():
            future.set_result(served)

    def stats(self) -> dict:
        """A point-in-time summary of the serving counters.

        ``p50``/``p99`` are wall-clock latency estimates from the
        ``serving.latency`` histogram buckets.
        """
        cache = self.cache
        return {
            "admitted": self._admitted.value("admitted"),
            "rejected_queue": self._admitted.value("rejected_queue"),
            "rejected_cost": self._admitted.value("rejected_cost"),
            "rejected_stopped": self._admitted.value("rejected_stopped"),
            "cache_hits": self._cache_served.value("hit"),
            "cache_misses": self._cache_served.value("miss"),
            "cache_invalidations": 0 if cache is None else cache.invalidations,
            "cache_entries": 0 if cache is None else len(cache),
            "queue_depth": self._queue.qsize(),
            "trees_built": self._trees.value(),
            "served": self._latency.cell().count,
            "p50_seconds": self._latency.quantile(0.50),
            "p99_seconds": self._latency.quantile(0.99),
        }
