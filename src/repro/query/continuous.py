"""Continuous queries running over simulated time (§3.1).

The paper's running example is a *continuous* query — sample every
second for five minutes — and the whole §3.1 argument is about
long-running queries amortizing one election over many cheap snapshot
rounds ("this is a reasonable startup cost considering the savings for
a long-running (continuous) query when executed through the snapshot").

:class:`ContinuousQuery` schedules one execution round per sampling
interval on the simulator, so the rounds interleave with maintenance,
node deaths and re-elections — unlike
:meth:`~repro.query.executor.QueryExecutor.execute`, which charges all
rounds at a single instant.  Results accumulate per epoch:

>>> # handle = ContinuousQuery(executor, query).start()
>>> # runtime.advance_to(...); handle.results -> [QueryResult, ...]

Each round re-selects responders against the *current* protocol state,
so a representative elected mid-query takes over seamlessly, and the
epoch stream shows coverage dips/recoveries around failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.query.ast import Query
from repro.query.executor import QueryExecutor, QueryResult

__all__ = ["ContinuousQuery", "EpochRecord"]


@dataclass(frozen=True)
class EpochRecord:
    """One sampling epoch of a continuous query."""

    epoch: int
    time: float
    result: QueryResult

    @property
    def coverage(self) -> float:
        """Coverage of this epoch's round."""
        return self.result.coverage()


class ContinuousQuery:
    """A query sampled once per interval over simulated time.

    Parameters
    ----------
    executor:
        The query executor to run rounds through.
    query:
        Must carry acquisition clauses (``sample_interval`` and
        ``duration``), as in ``SAMPLE INTERVAL 1sec FOR 5min``.
    sink:
        Fixed collecting node; chosen randomly per round if omitted.
    on_epoch:
        Optional callback invoked with each :class:`EpochRecord`.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        query: Query,
        sink: Optional[int] = None,
        on_epoch: Optional[Callable[[EpochRecord], None]] = None,
    ) -> None:
        if query.sample_interval is None or query.duration is None:
            raise ValueError(
                "a continuous query needs SAMPLE INTERVAL and FOR clauses"
            )
        self.executor = executor
        self.query = query
        self.sink = sink
        self.on_epoch = on_epoch
        self.records: list[EpochRecord] = []
        self._epoch = 0
        self._task = None
        self._started = False

    @property
    def runtime(self):
        """The underlying snapshot runtime."""
        return self.executor.runtime

    @property
    def total_epochs(self) -> int:
        """Number of sampling rounds the acquisition clauses imply."""
        return self.query.rounds

    @property
    def finished(self) -> bool:
        """Whether every epoch has run (or the query was stopped)."""
        return self._started and (self._task is None or self._task.stopped)

    def start(self) -> "ContinuousQuery":
        """Begin sampling; the first epoch fires one interval from now."""
        if self._started:
            raise RuntimeError("continuous query already started")
        self._started = True
        self._task = self.runtime.simulator.every(
            self.query.sample_interval,
            self._sample,
            label="continuous-query",
        )
        return self

    def stop(self) -> None:
        """Cancel remaining epochs."""
        if self._task is not None:
            self._task.stop()

    def _sample(self) -> None:
        self._epoch += 1
        sink = self.sink
        if sink is not None:
            device = self.runtime.radio.nodes.get(sink)
            if device is None or not device.alive:
                # The pinned collection point died mid-query; degrade to
                # a per-epoch random alive sink instead of crashing the
                # simulation out of the executor's sink validation.
                sink = None
        try:
            result = self.executor.execute(self.query, sink=sink, rounds=1)
        except RuntimeError:
            # the network died mid-query
            self.stop()
            return
        record = EpochRecord(
            epoch=self._epoch, time=self.runtime.simulator.now, result=result
        )
        self.records.append(record)
        if self.on_epoch is not None:
            self.on_epoch(record)
        if self._epoch >= self.total_epochs:
            self.stop()

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    @property
    def results(self) -> list[QueryResult]:
        """Per-epoch results in order."""
        return [record.result for record in self.records]

    def mean_coverage(self) -> float:
        """Average coverage across the epochs run so far."""
        if not self.records:
            return 0.0
        return sum(record.coverage for record in self.records) / len(self.records)

    def mean_participants(self) -> float:
        """Average per-epoch participant count — the §3.1 savings lever."""
        if not self.records:
            return 0.0
        return sum(
            record.result.n_participants for record in self.records
        ) / len(self.records)
