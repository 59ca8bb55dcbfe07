"""Query serving front-end (§3.1's shared-substrate promise).

The paper frames snapshots as infrastructure every running query
shares: "the data models ... will be shared among all running queries".
This package is the serving layer that makes the shared substrate
usable by many concurrent clients at once:

* :class:`~repro.serving.frontend.QueryFrontEnd` — a thread-pool front
  door with a bounded admission queue, cost-based admission through the
  extended :class:`~repro.query.planner.QueryPlanner` estimates, and
  batched execution that shares one aggregation tree across in-flight
  queries with the same sink;
* :class:`~repro.serving.cache.EpochResultCache` — a state-keyed
  snapshot-result cache: a cached
  :class:`~repro.query.executor.QueryResult` stays field-identical to
  fresh execution until the runtime's
  :meth:`~repro.core.runtime.SnapshotRuntime.state_key` moves — the
  structure version, the simulator's event count and clock, and the
  count of liveness writes and resignations (proven by the
  differential suite in ``tests/serving/``).
"""

from repro.serving.cache import EpochResultCache
from repro.serving.frontend import (
    AdmissionRejected,
    LATENCY_BUCKETS,
    QueryFrontEnd,
    ServedResult,
)

__all__ = [
    "AdmissionRejected",
    "EpochResultCache",
    "LATENCY_BUCKETS",
    "QueryFrontEnd",
    "ServedResult",
]
