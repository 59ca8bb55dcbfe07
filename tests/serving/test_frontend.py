"""Tests for the query serving front-end."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.query.ast import Aggregate, Query
from repro.query.spatial import Everywhere, Rect
from repro.serving import AdmissionRejected, QueryFrontEnd
from tests.conftest import make_runtime


def served_runtime(seed: int = 11):
    runtime = make_runtime(n_nodes=20, n_classes=2, seed=seed)
    runtime.train(duration=10)
    runtime.run_election()
    return runtime


def snapshot_avg(region=None) -> Query:
    return Query(
        region=Everywhere() if region is None else region,
        aggregate=Aggregate.AVG,
        use_snapshot=True,
    )


class TestValidation:
    def test_bounds_must_be_positive(self):
        runtime = served_runtime()
        with pytest.raises(ValueError):
            QueryFrontEnd(runtime, max_queue=0)


class TestAdmission:
    def test_queue_full_rejection(self):
        runtime = served_runtime()
        frontend = QueryFrontEnd(runtime, max_queue=2, cache=False)
        # the dispatcher is not started, so the queue only fills
        futures = [frontend.submit(snapshot_avg()) for _ in range(2)]
        with pytest.raises(AdmissionRejected) as rejected:
            frontend.submit(snapshot_avg())
        assert rejected.value.reason == "queue"
        assert frontend.stats()["rejected_queue"] == 1
        frontend.start()
        assert all(f.result(timeout=10).result is not None for f in futures)
        frontend.stop()

    def test_cost_rejection(self):
        runtime = served_runtime()
        with QueryFrontEnd(runtime, max_cost=0.01) as frontend:
            with pytest.raises(AdmissionRejected) as rejected:
                frontend.submit(snapshot_avg())
            assert rejected.value.reason == "cost"
            assert frontend.stats()["rejected_cost"] == 1

    def test_generous_budget_admits(self):
        runtime = served_runtime()
        with QueryFrontEnd(runtime, max_cost=1e9) as frontend:
            served = frontend.submit(snapshot_avg()).result(timeout=10)
        assert served.estimate.total_transmissions <= 1e9

    def test_dead_sink_surfaces_in_the_future(self):
        runtime = served_runtime()
        with QueryFrontEnd(runtime, cache=False) as frontend:
            future = frontend.submit(snapshot_avg(), sink=10_000)
            with pytest.raises(ValueError, match="not alive"):
                future.result(timeout=10)


class TestBatchedDispatch:
    def test_same_sink_batch_shares_one_tree(self):
        runtime = served_runtime()
        frontend = QueryFrontEnd(runtime, charge_energy=False)
        # distinct regions => distinct cache keys => every query executes
        regions = [Rect(0.0, 0.0, 0.2 * (i + 1), 1.0) for i in range(5)]
        futures = [frontend.submit(snapshot_avg(region)) for region in regions]
        frontend.start()
        results = [future.result(timeout=10) for future in futures]
        frontend.stop()
        assert all(not served.cached for served in results)
        # all five were queued before the dispatcher woke: one batch,
        # one sink group, one flooded tree
        assert frontend.stats()["trees_built"] == 1

    def test_default_sink_is_smallest_alive(self):
        runtime = served_runtime()
        with QueryFrontEnd(runtime, charge_energy=False) as frontend:
            served = frontend.submit(snapshot_avg()).result(timeout=10)
        assert served.result.sink == min(runtime.alive_ids())

    def test_duplicate_in_one_batch_served_from_cache(self):
        runtime = served_runtime()
        frontend = QueryFrontEnd(runtime, charge_energy=False)
        query = snapshot_avg()
        futures = [frontend.submit(query) for _ in range(4)]
        frontend.start()
        results = [future.result(timeout=10) for future in futures]
        frontend.stop()
        assert sum(1 for served in results if not served.cached) == 1
        assert sum(1 for served in results if served.cached) == 3
        answers = {served.result.aggregate_value for served in results}
        assert len(answers) == 1


class TestWorkloads:
    def test_concurrent_clients_all_complete(self):
        runtime = served_runtime()
        queries = [
            snapshot_avg(Rect(0.0, 0.0, 0.25 * (1 + i % 4), 1.0)) for i in range(24)
        ]
        with QueryFrontEnd(runtime, charge_energy=False) as frontend:
            results = frontend.run_workload(queries, clients=6)
            stats = frontend.stats()
        assert len(results) == 24
        assert all(served.result.rounds >= 1 for served in results)
        assert stats["admitted"] == 24
        assert stats["served"] == 24
        assert stats["cache_hits"] + stats["cache_misses"] == 24
        assert stats["cache_hits"] >= 24 - 4  # only 4 distinct templates
        assert stats["p99_seconds"] >= stats["p50_seconds"] >= 0.0

    def test_cache_off_executes_everything(self):
        runtime = served_runtime()
        query = snapshot_avg()
        with QueryFrontEnd(runtime, cache=False, charge_energy=False) as frontend:
            results = frontend.run_workload([query] * 6, clients=3)
        assert all(not served.cached for served in results)

    def test_regular_mode_results_never_cached(self):
        runtime = served_runtime()
        # a demoted query (threshold tighter than the snapshot) runs
        # regularly and must not be replayed from the cache
        query = Query(region=Everywhere(), use_snapshot=True, snapshot_threshold=1e-6)
        with QueryFrontEnd(runtime, charge_energy=False) as frontend:
            first = frontend.submit(query).result(timeout=10)
            second = frontend.submit(query).result(timeout=10)
        assert first.plan.needs_election
        assert not first.result.query.use_snapshot
        assert not first.cached and not second.cached
        assert len(frontend.cache) == 0


class TestLifecycle:
    def test_context_manager_starts_and_stops(self):
        runtime = served_runtime()
        frontend = QueryFrontEnd(runtime, charge_energy=False)
        with frontend:
            assert frontend._dispatcher is not None
            frontend.submit(snapshot_avg()).result(timeout=10)
        assert frontend._dispatcher is None

    def test_stop_without_drain_cancels_pending(self):
        runtime = served_runtime()
        frontend = QueryFrontEnd(runtime, charge_energy=False)
        future = frontend.submit(snapshot_avg())  # never started
        frontend.stop(drain=False)
        assert future.cancelled()

    def test_start_is_idempotent(self):
        runtime = served_runtime()
        frontend = QueryFrontEnd(runtime, charge_energy=False)
        frontend.start()
        first = frontend._dispatcher
        frontend.start()
        assert frontend._dispatcher is first
        frontend.stop()

    def test_submit_after_stop_is_rejected(self):
        """A stopped front end refuses submits instead of queueing them
        behind a dispatcher that is gone (the future would never
        resolve).  Cached hits are refused too; ``start`` admits again."""
        runtime = served_runtime()
        frontend = QueryFrontEnd(runtime, charge_energy=False).start()
        cached = snapshot_avg()
        frontend.submit(cached, sink=0).result(timeout=10)
        frontend.stop()
        fresh = snapshot_avg(Rect(0.0, 0.0, 0.5, 0.5))
        for query in (fresh, cached):
            with pytest.raises(AdmissionRejected) as info:
                frontend.submit(query, sink=0).result(timeout=5)
            assert info.value.reason == "stopped"
        assert frontend.stats()["rejected_stopped"] == 2
        frontend.start()
        try:
            assert frontend.submit(fresh, sink=0).result(timeout=10).result
        finally:
            frontend.stop()

    def test_stop_racing_submitters_strands_no_future(self):
        """Clients submitting while ``stop`` runs: every submit is either
        refused as stopped or served; none is left pending.  Each client
        also submits once before ``stop`` starts and once after it
        returns, so both outcomes occur whatever the scheduling."""
        runtime = served_runtime()
        frontend = QueryFrontEnd(runtime, charge_energy=False, max_queue=1000).start()
        queries = [snapshot_avg(Rect(0.0, 0.0, 0.1 * k, 1.0)) for k in range(1, 11)]
        admitted, refused, errors = [], [], []
        lock = threading.Lock()
        clients_ready = threading.Barrier(9, timeout=60)
        stopped = threading.Event()

        def submit(k: int) -> None:
            try:
                future = frontend.submit(queries[k % 10], sink=0)
            except AdmissionRejected as error:
                with lock:
                    (refused if error.reason == "stopped" else errors).append(error)
                return
            with lock:
                admitted.append(future)

        def client(offset: int) -> None:
            submit(offset)
            clients_ready.wait()
            for i in range(40):
                submit(offset + i)
            stopped.wait(timeout=60)
            submit(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            for thread in clients:
                thread.start()
            clients_ready.wait()
            frontend.stop()
            stopped.set()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert refused and admitted
        for future in admitted:
            assert future.result(timeout=10).result is not None
